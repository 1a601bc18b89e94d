package stages

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ceresz/internal/core"
	"ceresz/internal/flenc"
	"ceresz/internal/quant"
)

func smoothField(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.01
		data[i] = float32(math.Sin(float64(i)*0.02)*3 + v)
	}
	return data
}

// TestChainMatchesCore is the central functional invariant: running the
// sub-stage chain block by block must produce exactly the block bytes that
// internal/core emits, for either element type, and the decompression
// chain must reproduce core's decoded values bit for bit.
func TestChainMatchesCore(t *testing.T) {
	data := smoothField(4096+17, 1)
	data64 := make([]float64, len(data))
	for i, v := range data {
		data64[i] = float64(v) * 1.0000001
	}
	for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
		comp, _, err := core.CompressWithEps(nil, data, 1e-3, core.Options{HeaderBytes: hdr, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := core.Decompress(nil, comp, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkChainMatches(t, data, comp, out, hdr)
		comp, _, err = core.Compress64WithEps(nil, data64, 1e-3, core.Options{HeaderBytes: hdr, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		out64, _, err := core.Decompress64(nil, comp, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkChainMatches(t, data64, comp, out64, hdr)
	}
}

func checkChainMatches[F float32 | float64](t *testing.T, data []F, comp []byte, out []F, hdr int) {
	t.Helper()
	cfg := Config{BlockLen: 32, HeaderBytes: hdr, Eps: 1e-3, EstWidth: 8}
	cc, err := NewCompress[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := NewDecompress[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	cst, dst := NewBlockState[F](32), NewBlockState[F](32)
	body := comp[core.StreamHeaderSize:]
	for lo := 0; lo < len(data); lo += 32 {
		cst.ResetForCompress(data[lo:min(lo+32, len(data))])
		cc.RunAll(cst)
		if !bytes.HasPrefix(body, cst.Encoded) {
			t.Fatalf("hdr=%d %T: chain bytes of the block at %d differ from core's", hdr, data[0], lo)
		}
		body = body[len(cst.Encoded):]
		dst.ResetForDecompress(cst.Encoded)
		dc.RunAll(dst)
		for i, v := range out[lo:min(lo+32, len(out))] {
			if v != dst.Raw[i] {
				t.Fatalf("hdr=%d %T: element %d decodes to %g, core %g", hdr, data[0], lo+i, dst.Raw[i], v)
			}
		}
	}
	if len(body) != 0 {
		t.Fatalf("hdr=%d %T: core wrote %d bytes past the chain's", hdr, data[0], len(body))
	}
}

func TestDecompressChainInvertsCompressChain(t *testing.T) {
	data := smoothField(2048, 2)
	eps := 5e-4
	cc, err := NewCompressChain(Config{BlockLen: 32, Eps: eps, EstWidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := NewDecompressChain(Config{BlockLen: 32, Eps: eps, EstWidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	cst := NewBlockState[float32](32)
	dst := NewBlockState[float32](32)
	for b := 0; b < len(data)/32; b++ {
		blk := data[b*32 : (b+1)*32]
		cst.ResetForCompress(blk)
		cc.RunAll(cst)
		dst.ResetForDecompress(cst.Encoded)
		dc.RunAll(dst)
		for i := range blk {
			if e := math.Abs(float64(dst.Raw[i]) - float64(blk[i])); e > eps {
				t.Fatalf("block %d elem %d: error %g > ε", b, i, e)
			}
		}
	}
}

func TestVerbatimThroughChain(t *testing.T) {
	blk := make([]float32, 32)
	for i := range blk {
		blk[i] = float32(math.Inf(1))
	}
	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 4})
	dc, _ := NewDecompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 4})
	st := NewBlockState[float32](32)
	st.ResetForCompress(blk)
	cc.RunAll(st)
	if !st.Verbatim {
		t.Fatal("Inf block not marked verbatim")
	}
	if len(st.Encoded) != flenc.HeaderU32+4*32 { // the header, then the raw elements
		t.Fatalf("verbatim size %d", len(st.Encoded))
	}
	out := NewBlockState[float32](32)
	out.ResetForDecompress(st.Encoded)
	dc.RunAll(out)
	for i := range blk {
		if !math.IsInf(float64(out.Raw[i]), 1) {
			t.Fatalf("verbatim round trip lost Inf at %d", i)
		}
	}
}

func TestZeroBlockCostSkipsShuffle(t *testing.T) {
	// Paper §5.2: zero blocks avoid fixed-length encoding and Bit-shuffle,
	// which is why looser bounds raise throughput.
	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-2, EstWidth: 10})
	zero := NewBlockState[float32](32)
	zero.ResetForCompress(make([]float32, 32))
	zeroCycles := cc.RunAll(zero)

	busy := NewBlockState[float32](32)
	blk := make([]float32, 32)
	for i := range blk {
		blk[i] = float32(i) * 7.3
	}
	busy.ResetForCompress(blk)
	busyCycles := cc.RunAll(busy)
	if zeroCycles >= busyCycles {
		t.Fatalf("zero block cost %d not below busy block cost %d", zeroCycles, busyCycles)
	}
	if zero.Width != 0 || busy.Width == 0 {
		t.Fatalf("widths: zero=%d busy=%d", zero.Width, busy.Width)
	}
}

func TestTable1Cycles(t *testing.T) {
	// The calibrated model must reproduce the paper's Table 1 profile for
	// fixed length 17 (CESM-ATM): Pre-Quant ≈ 6051…6116, Lorenzo = 975,
	// FL-Encode ≈ 37124 cycles per 32-element block.
	cm := DefaultCosts()
	preQuant := cm.Mul + cm.Add
	if preQuant < 6000 || preQuant > 6200 {
		t.Fatalf("pre-quant cycles %.0f outside Table 1/2 regime", preQuant)
	}
	if cm.Lorenzo != 975 {
		t.Fatalf("Lorenzo cycles %.0f, want 975", cm.Lorenzo)
	}
	flEnc := cm.Sign + cm.Max + cm.GetLength + 17*cm.ShufflePerBit
	if math.Abs(flEnc-37124) > 200 {
		t.Fatalf("FL-encode cycles %.0f, want ≈37124 (Table 1, CESM-ATM)", flEnc)
	}
	// HACC (fl=13) and QMCPack (fl=12) rows.
	if got := cm.Sign + cm.Max + cm.GetLength + 13*cm.ShufflePerBit; math.Abs(got-29181) > 300 {
		t.Fatalf("FL-encode fl=13: %.0f, want ≈29181", got)
	}
	if got := cm.Sign + cm.Max + cm.GetLength + 12*cm.ShufflePerBit; math.Abs(got-27188) > 300 {
		t.Fatalf("FL-encode fl=12: %.0f, want ≈27188", got)
	}
}

func TestEstimateCycles(t *testing.T) {
	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 5})
	est := cc.EstimateCycles(5)
	if len(est) != len(cc.Stages) {
		t.Fatalf("estimate length %d != stages %d", len(est), len(cc.Stages))
	}
	var shuffles int
	for i, s := range cc.Stages {
		if est[i] < 0 {
			t.Fatalf("negative estimate for %s", s.Name)
		}
		if len(s.Name) > 7 && s.Name[:7] == "Shuffle" {
			shuffles++
			if est[i] != 1976 {
				t.Fatalf("%s estimate %d, want 1976", s.Name, est[i])
			}
		}
	}
	if shuffles != 5 {
		t.Fatalf("chain has %d shuffle stages, want 5", shuffles)
	}
	// Width above the estimate folds into the last shuffle stage.
	est8 := cc.EstimateCycles(8)
	lastShuffle := -1
	for i, s := range cc.Stages {
		if len(s.Name) > 7 && s.Name[:7] == "Shuffle" {
			lastShuffle = i
		}
	}
	if est8[lastShuffle] != 4*1976 {
		t.Fatalf("tail shuffle estimate %d, want %d", est8[lastShuffle], 4*1976)
	}
}

func TestEstimateWidth(t *testing.T) {
	data := smoothField(32*100, 3)
	w, err := EstimateWidth(data, 1e-3, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w < 1 || w > 32 {
		t.Fatalf("estimated width %d out of range", w)
	}
	// Sampling with a stride can only lower (or keep) the max estimate.
	w20, err := EstimateWidth(data, 1e-3, 32, 20)
	if err != nil {
		t.Fatal(err)
	}
	if w20 > w {
		t.Fatalf("strided estimate %d exceeds full estimate %d", w20, w)
	}
	// Zero data estimates the floor width of 1.
	wz, err := EstimateWidth(make([]float32, 320), 1e-3, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wz != 1 {
		t.Fatalf("zero-data width %d, want 1", wz)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{BlockLen: 12, Eps: 1e-3},
		{BlockLen: 32, Eps: 0},
		{BlockLen: 32, Eps: 1e-3, HeaderBytes: 3},
		{BlockLen: 32, Eps: 1e-3, EstWidth: 40},
	}
	for i, cfg := range bad {
		if _, err := NewCompressChain(cfg); err == nil {
			t.Fatalf("case %d: compress chain accepted bad config %+v", i, cfg)
		}
		if _, err := NewDecompressChain(cfg); err == nil {
			t.Fatalf("case %d: decompress chain accepted bad config %+v", i, cfg)
		}
	}
}

func TestWaveletsAccounting(t *testing.T) {
	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 6})
	st := NewBlockState[float32](32)
	blk := smoothField(32, 4)
	st.ResetForCompress(blk)
	if st.Wavelets() != 32 {
		t.Fatalf("raw wavelets %d, want 32", st.Wavelets())
	}
	for i := range cc.Stages {
		cc.Stages[i].Run(st)
		if w := st.Wavelets(); w <= 0 || w > 32+flenc.MaxWidth+2+32 {
			t.Fatalf("after %s: implausible wavelet count %d", cc.Stages[i].Name, w)
		}
	}
	// After Emit the live representation is the encoded block.
	want := (len(st.Encoded) + 3) / 4
	if st.Wavelets() != want {
		t.Fatalf("encoded wavelets %d, want %d", st.Wavelets(), want)
	}
}

// Property: the chain honors the error bound for arbitrary quantizable
// blocks, and cycles are non-negative and width-monotone in Bit-shuffle.
func TestQuickChainErrorBound(t *testing.T) {
	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-2, EstWidth: 4})
	dc, _ := NewDecompressChain(Config{BlockLen: 32, Eps: 1e-2, EstWidth: 4})
	cst := NewBlockState[float32](32)
	dst := NewBlockState[float32](32)
	f := func(vals [32]float32) bool {
		blk := make([]float32, 32)
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			blk[i] = float32(math.Mod(float64(v), 1e4))
		}
		cst.ResetForCompress(blk)
		cc.RunAll(cst)
		dst.ResetForDecompress(cst.Encoded)
		dc.RunAll(dst)
		for i := range blk {
			if cst.Verbatim {
				if dst.Raw[i] != blk[i] {
					return false
				}
				continue
			}
			if math.Abs(float64(dst.Raw[i])-float64(blk[i])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChainStageNames(t *testing.T) {
	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 2})
	want := []string{"Mul", "Add", "Lorenzo", "Sign", "Max", "GetLength", "Shuffle[0]", "Shuffle[1]", "Emit"}
	got := cc.StageNames()
	if len(got) != len(want) {
		t.Fatalf("stage names %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d = %s, want %s", i, got[i], want[i])
		}
	}
	dc, _ := NewDecompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 2})
	wantD := []string{"Header", "Unshuffle[0]", "Unshuffle[1]", "MergeSigns", "PrefixSum", "DeqMul"}
	gotD := dc.StageNames()
	if len(gotD) != len(wantD) {
		t.Fatalf("decompress stage names %v, want %v", gotD, wantD)
	}
	for i := range wantD {
		if gotD[i] != wantD[i] {
			t.Fatalf("decompress stage %d = %s, want %s", i, gotD[i], wantD[i])
		}
	}
}

// Ensure quant package linkage stays honest: the chain and a raw Quantizer
// agree on codes for a representative block.
func TestChainQuantAgreement(t *testing.T) {
	q, _ := quant.NewQuantizer(1e-3)
	blk := smoothField(32, 5)
	want := make([]int32, 32)
	q.Quantize(want, blk)

	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 4})
	st := NewBlockState[float32](32)
	st.ResetForCompress(blk)
	// Run only Mul and Add.
	cc.Stages[0].Run(st)
	cc.Stages[1].Run(st)
	for i := range want {
		if st.Codes[i] != want[i] {
			t.Fatalf("code %d: chain %d != quant %d", i, st.Codes[i], want[i])
		}
	}
}

// TestCostsMonotoneInWidth: the per-block cost must grow with the fixed
// length (Bit-shuffle work is per effective bit) and never be negative.
func TestCostsMonotoneInWidth(t *testing.T) {
	for _, mk := range []func(stages Config) (*Chain[float32], error){NewCompressChain, NewDecompressChain} {
		chain, err := mk(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		var prev int64 = -1
		for w := uint(0); w <= 32; w++ {
			var total int64
			for _, c := range chain.EstimateCycles(w) {
				if c < 0 {
					t.Fatalf("%s width %d: negative stage cost", chain.Dir, w)
				}
				total += c
			}
			if total < prev {
				t.Fatalf("%s: total cost fell from %d to %d at width %d", chain.Dir, prev, total, w)
			}
			prev = total
		}
	}
}

// TestDecompressionCheaperAtSameWidth pins the calibration target behind
// the paper's "fewer computations in decompression" (§3): at any fixed
// length the decompression chain costs less than the compression chain.
func TestDecompressionCheaperAtSameWidth(t *testing.T) {
	cc, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 8})
	dc, _ := NewDecompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 8})
	sum := func(cs []int64) int64 {
		var s int64
		for _, c := range cs {
			s += c
		}
		return s
	}
	for w := uint(1); w <= 32; w++ {
		comp := sum(cc.EstimateCycles(w))
		dec := sum(dc.EstimateCycles(w))
		if dec >= comp {
			t.Fatalf("width %d: decompression %d not below compression %d", w, dec, comp)
		}
	}
}

// TestCostsScaleWithBlockLength: costs are per-block and linear in L.
func TestCostsScaleWithBlockLength(t *testing.T) {
	c32, _ := NewCompressChain(Config{BlockLen: 32, Eps: 1e-3, EstWidth: 4})
	c64, _ := NewCompressChain(Config{BlockLen: 64, Eps: 1e-3, EstWidth: 4})
	s32 := c32.EstimateCycles(4)
	s64 := c64.EstimateCycles(4)
	var t32, t64 int64
	for i := range s32 {
		t32 += s32[i]
		t64 += s64[i]
	}
	ratio := float64(t64) / float64(t32)
	if ratio < 1.95 || ratio > 2.05 {
		t.Fatalf("doubling L scaled cost by %.3f, want ≈2", ratio)
	}
}
