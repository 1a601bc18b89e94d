//go:build amd64 && !purego

package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ceresz/internal/cpufeat"
	"ceresz/internal/flenc"
	"ceresz/internal/kerneltest"
)

// The assembly kernels are tested differentially: the same input goes
// through the codec on the Go kernels (the oracle) and on every vector
// kernel set the CPU has, and stream bytes, Stats and decoded bits must be
// equal. Equal bytes mean equal decisions — which blocks are zero, which
// verbatim, every code, width and sign. A set is encoded on only when its
// encoder (encoders) has not been checked yet; every set decodes.

// dispatch are the package's kernel dispatch flags.
var dispatch = []*bool{&useAVX2, &useAVX512}

// kernelSets are the kernel sets of this build, the Go kernels first.
var kernelSets = []kerneltest.Set{
	{Name: "go", Have: true, Flags: dispatch, On: []bool{false, false}},
	{Name: "avx2", Have: cpufeat.AVX2, Flags: dispatch, On: []bool{true, false}},
	{Name: "avx512", Have: cpufeat.AVX512, Flags: dispatch, On: []bool{true, true}},
}

// encoders names the encoder each kernel set runs. The avx2 and avx512
// sets share the AVX2 encoder (encodeRun reads only useAVX2); they differ
// in the decoder.
var encoders = map[string]string{"go": "go", "avx2": "avx2", "avx512": "avx2"}

// vectorSets are the sets besides the Go kernels that the CPU runs.
func vectorSets() []kerneltest.Set {
	var sets []kerneltest.Set
	for _, s := range kernelSets[1:] {
		if s.Have {
			sets = append(sets, s)
		}
	}
	return sets
}

func needAVX2(t testing.TB) {
	t.Helper()
	if !cpufeat.AVX2 {
		t.Skip("CPU has no AVX2: the Go kernels are the only path")
	}
}

// on runs f with the package switched onto s.
func on(s kerneltest.Set, f func()) {
	defer s.Use()()
	f()
}

// vecCodec is what the differential tests need of either element type.
type vecCodec[F float32 | float64] struct {
	name       string
	compress   func(dst []byte, data []F, eps float64, opts Options) ([]byte, *Stats, error)
	decompress func(dst []F, comp []byte, workers int) ([]F, Meta, error)
	bits       func(F) uint64
	smallest   F // smallest subnormal
	maxSub     F // largest subnormal
}

var (
	vec32 = vecCodec[float32]{
		name: "float32", compress: CompressWithEps, decompress: Decompress,
		bits:     func(x float32) uint64 { return uint64(math.Float32bits(x)) },
		smallest: math.SmallestNonzeroFloat32, maxSub: math.Float32frombits(0x007FFFFF),
	}
	vec64 = vecCodec[float64]{
		name: "float64", compress: Compress64WithEps, decompress: Decompress64,
		bits:     math.Float64bits,
		smallest: math.SmallestNonzeroFloat64, maxSub: math.Float64frombits(0x000FFFFFFFFFFFFF),
	}
)

// check compresses data on the Go kernels and on each other encoder the
// vector sets run, and decodes the Go stream on every set, requiring
// equal bytes, Stats and output bits. dst is the empty (possibly unaligned, possibly nil) slice the
// decoders append to. describe names block b of the input for the failure
// message. It returns the Stats all sets agreed on.
func (c vecCodec[F]) check(t *testing.T, data []F, eps float64, opts Options, dst []F, describe func(b int) string) Stats {
	t.Helper()
	var goComp []byte
	var goStats *Stats
	var goOut []F
	var goErr, decErr error
	on(kernelSets[0], func() {
		goComp, goStats, goErr = c.compress(nil, data, eps, opts)
		if goErr == nil {
			goOut, _, decErr = c.decompress(dst, goComp, 1)
		}
	})
	if goErr != nil || decErr != nil {
		t.Fatalf("%s eps=%g: Go kernels: compress %v, decompress %v", c.name, eps, goErr, decErr)
	}
	goOut = append([]F(nil), goOut...) // every decode may share dst
	if len(goOut) != len(data) {
		t.Fatalf("%s: Go kernels decoded %d elements of %d", c.name, len(goOut), len(data))
	}
	encoded := map[string]bool{encoders[kernelSets[0].Name]: true}
	for _, set := range vectorSets() {
		var asmOut []F
		var asmErr error
		if enc := encoders[set.Name]; !encoded[enc] {
			encoded[enc] = true
			var asmComp []byte
			var asmStats *Stats
			on(set, func() { asmComp, asmStats, asmErr = c.compress(nil, data, eps, opts) })
			if asmErr != nil {
				t.Fatalf("%s eps=%g: compress on %s: %v", c.name, eps, set.Name, asmErr)
			}
			if !bytes.Equal(goComp, asmComp) || *goStats != *asmStats {
				t.Fatalf("%s eps=%g L=%d hdr=%d n=%d: %s and Go kernels disagree%s\n go  %+v\n %s %+v",
					c.name, eps, opts.BlockLen, opts.HeaderBytes, len(data), set.Name,
					c.firstDiff(set, data, eps, opts, describe), *goStats, set.Name, *asmStats)
			}
		}
		on(set, func() { asmOut, _, asmErr = c.decompress(dst, goComp, 1) })
		if asmErr != nil {
			t.Fatalf("%s eps=%g: decompress on %s: %v", c.name, eps, set.Name, asmErr)
		}
		if len(asmOut) != len(data) {
			t.Fatalf("%s: %s decoded %d elements of %d", c.name, set.Name, len(asmOut), len(data))
		}
		for i := range goOut {
			if c.bits(goOut[i]) != c.bits(asmOut[i]) {
				t.Fatalf("%s eps=%g L=%d: element %d (%s) decodes to %x on the Go kernel, %x on %s",
					c.name, eps, opts.BlockLen, i, describe(i/opts.BlockLen), c.bits(goOut[i]), c.bits(asmOut[i]), set.Name)
			}
		}
	}
	return *goStats
}

// firstDiff re-encodes block by block to name the first block the Go
// kernels and set encode differently.
func (c vecCodec[F]) firstDiff(set kerneltest.Set, data []F, eps float64, opts Options, describe func(b int) string) string {
	L := opts.BlockLen
	for b := 0; b*L < len(data); b++ {
		block := data[b*L : min(b*L+L, len(data))]
		var g, a []byte
		on(kernelSets[0], func() { g, _, _ = c.compress(nil, block, eps, opts) })
		on(set, func() { a, _, _ = c.compress(nil, block, eps, opts) })
		if !bytes.Equal(g, a) {
			return fmt.Sprintf("\n block %d (%s) = %v\n go  %x\n asm %x", b, describe(b), block, g[StreamHeaderSize:], a[StreamHeaderSize:])
		}
	}
	return " (no single block differs)"
}

// vecSpecial is one or two adjacent lane values and what they exercise.
type vecSpecial[F float32 | float64] struct {
	name string
	vals []F
}

// specials are the lane values the kernels' masks exist for, scaled to ε.
// The two pairs make a Lorenzo delta of −2³¹ and of +2³¹ (which wraps to
// MinInt32): with ε a power of two both operands are exact and pass the
// strictness check, so the block reaches width 32.
func (c vecCodec[F]) specials(eps float64) []vecSpecial[F] {
	two := 2 * eps
	inf := F(math.Inf(1))
	return []vecSpecial[F]{
		{"NaN", []F{F(math.NaN())}},
		{"+Inf", []F{inf}},
		{"-Inf", []F{-inf}},
		{"+0", []F{0}},
		{"-0", []F{F(math.Copysign(0, -1))}},
		{"smallest subnormal", []F{c.smallest}},
		{"-smallest subnormal", []F{-c.smallest}},
		{"largest subnormal", []F{c.maxSub}},
		{"-largest subnormal", []F{-c.maxSub}},
		{"code 2^31 (overflow)", []F{F(math.Ldexp(two, 31))}},
		{"code 2^31-1", []F{F((math.MaxInt32) * two)}},
		{"code -2^31 (MinInt32)", []F{F(-math.Ldexp(two, 31))}},
		{"code -2^31-1 (overflow)", []F{F((math.MinInt32 - 1) * two)}},
		{"strictness: eps*2^24*1.3", []F{F(math.Ldexp(eps*1.3, 24))}},
		{"strictness: -eps*2^25*1.7", []F{F(-math.Ldexp(eps*1.7, 25))}},
		{"strictness: eps*(2^26+1)", []F{F(eps * (1<<26 + 1))}},
		{"half-way code boundary", []F{F(eps * 3)}},
		{"delta -2^31", []F{F(math.Ldexp(two, 30)), F(-math.Ldexp(two, 30))}},
		{"delta +2^31", []F{F(-math.Ldexp(two, 30)), F(math.Ldexp(two, 30))}},
	}
}

// laneCase is one block of a laneBlocks input.
type laneCase struct {
	special string
	pos     int
	ramp    bool
}

// laneBlocks builds one block of length L per (special, position,
// background): every special in each of the eight lanes of the first group
// and of the last group, over a zero background (the prescan's side of the
// decision) and over a ramp of small codes (the kernel's).
func laneBlocks[F float32 | float64](L int, eps float64, specials []vecSpecial[F]) ([]F, []laneCase) {
	var data []F
	var cases []laneCase
	positions := make([]int, 0, 16)
	for lane := 0; lane < 8; lane++ {
		positions = append(positions, lane)
	}
	for lane := 0; lane < 8 && L > 8; lane++ {
		positions = append(positions, L-8+lane)
	}
	for _, ramp := range []bool{false, true} {
		for _, sp := range specials {
			for _, pos := range positions {
				block := make([]F, L)
				if ramp {
					for i := range block {
						block[i] = F(eps * 2.2 * float64((i*7)%11-5))
					}
				}
				at := min(pos, L-len(sp.vals))
				copy(block[at:], sp.vals)
				data = append(data, block...)
				cases = append(cases, laneCase{sp.name, pos, ramp})
			}
		}
	}
	return data, cases
}

func testVectorLanes[F float32 | float64](t *testing.T, c vecCodec[F]) {
	needAVX2(t)
	ladder := boundaryEps()
	// Every block length against a few bounds, every bound against a few
	// block lengths: the cross product is hundreds of millions of elements.
	allLengths := map[float64]bool{math.Ldexp(1, -40): true, 1: true, math.Ldexp(1, 40): true, ladder[41]: true}
	if testing.Short() || raceEnabled { // the kernels share no state to race on
		allLengths = map[float64]bool{1: true}
		thinned := ladder[:0:0]
		for i, eps := range ladder {
			if i%4 == 0 || eps == 1 {
				thinned = append(thinned, eps)
			}
		}
		ladder = thinned
	}
	for i, eps := range ladder {
		lengths := []int{8, 32, 40}
		if allLengths[eps] {
			lengths = lengths[:0]
			for L := 8; L <= 256; L += 8 {
				lengths = append(lengths, L)
			}
		}
		specials := c.specials(eps)
		for _, L := range lengths {
			data, cases := laneBlocks(L, eps, specials)
			opts := Options{BlockLen: L, HeaderBytes: flenc.HeaderU32, Workers: 1}
			if (i+L/8)%2 == 1 {
				opts.HeaderBytes = flenc.HeaderU8
			}
			stats := c.check(t, data, eps, opts, nil, func(b int) string {
				return fmt.Sprintf("%s at element %d, ramp=%v", cases[b].special, cases[b].pos, cases[b].ramp)
			})
			// At ε = 1 the specials must do what their names say, or the
			// agreement above is agreement on the easy cases only.
			if eps == 1 && (stats.ZeroBlocks == 0 || stats.VerbatimBlocks == 0 || stats.WidthHistogram[32] == 0 || stats.WidthHistogram[31] == 0) {
				t.Fatalf("%s L=%d: specials reach no zero, verbatim, width-31 or width-32 block: %+v", c.name, L, stats)
			}
		}
	}
}

func TestVectorKernelsLanes32(t *testing.T) { testVectorLanes(t, vec32) }
func TestVectorKernelsLanes64(t *testing.T) { testVectorLanes(t, vec64) }

// TestVectorKernelsShapes covers what a single aligned block cannot:
// trailing partial blocks, inputs and outputs that start at every offset
// within a 32-byte vector, and streams mixing zero, coded and verbatim
// blocks.
func testVectorShapes[F float32 | float64](t *testing.T, c vecCodec[F]) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(21))
	const eps = 1e-3
	specials := c.specials(eps)
	pool := make([]F, 1200)
	for i := range pool {
		switch r := rng.Intn(40); {
		case r == 0:
			sp := specials[rng.Intn(len(specials))]
			pool[i] = sp.vals[0]
		case r < 12:
			pool[i] = F(eps * 0.4 * rng.NormFloat64()) // mostly inside the zero threshold
		default:
			pool[i] = F(math.Sin(float64(i)/17) + 0.01*rng.NormFloat64())
		}
	}
	out := make([]F, len(pool)+16)
	none := func(int) string { return "mixed" }
	for _, L := range []int{8, 32, 64, 136} {
		for off := 0; off < 10; off++ {
			for _, n := range []int{0, 1, 7, 8, 9, 31, 33, 100, 257, 1000} {
				opts := Options{BlockLen: L, Workers: 1}
				c.check(t, pool[off:off+n], eps, opts, out[off:off:off+n], none)
			}
		}
	}
	// The same through the sharded path: shards hand the kernels
	// sub-slices at block granularity.
	c.check(t, pool, eps, Options{BlockLen: 32, Workers: 3}, nil, none)
}

func TestVectorKernelsShapes32(t *testing.T) { testVectorShapes(t, vec32) }
func TestVectorKernelsShapes64(t *testing.T) { testVectorShapes(t, vec64) }

// enumEps are the bounds of the float32 enumeration: tight, loose, exact
// powers of two and not, and a REL 1e-3 bound as the benchmark resolves
// them.
var enumEps = []float64{math.Ldexp(1, -40), math.Ldexp(1.37, -20), math.Ldexp(1, -10), 1.0352e-3, 0.37, 1, math.Ldexp(1.1, 10), math.Ldexp(1, 40)}

// TestVectorKernelsEnumerate32 walks the float32 line: every 2¹²-th bit
// pattern (so every binade of both signs, the subnormals, the infinities
// and the NaN space are sampled 2¹¹ times over), and 64 ulps either side
// of every point where a code can change — k·2ε and (k+½)·2ε for small k
// and for k at every power of two up to the int32 edge. Each value sits
// alone in a block of zeros, its lane rotating, so the block's fate is the
// element's: same code, or verbatim, on every kernel set.
func TestVectorKernelsEnumerate32(t *testing.T) {
	needAVX2(t)
	stride := uint64(1) << 12
	if testing.Short() || raceEnabled {
		stride <<= 4
	}
	const L, chunk = 8, 1 << 13
	for _, eps := range enumEps {
		var vals []float32
		flush := func() {
			data := make([]float32, L*len(vals))
			for i, v := range vals {
				data[L*i+i%L] = v
			}
			kept := vals
			vec32.check(t, data, eps, Options{BlockLen: L, Workers: 1}, nil, func(b int) string {
				return fmt.Sprintf("bits %08x in lane %d", math.Float32bits(kept[b]), b%L)
			})
			vals = vals[:0]
		}
		add := func(v float32) {
			if vals = append(vals, v); len(vals) == chunk {
				flush()
			}
		}
		for bits := uint64(0); bits < 1<<32; bits += stride {
			add(math.Float32frombits(uint32(bits)))
		}
		around := func(x float64) {
			c := math.Float32bits(float32(x))
			for d := -64; d <= 64; d++ {
				add(math.Float32frombits(c + uint32(d)))
			}
		}
		var ks []float64
		for k := -64; k <= 64; k++ {
			ks = append(ks, float64(k))
		}
		for j := 7; j <= 31; j++ {
			for _, d := range []float64{-1, 0, 1} {
				ks = append(ks, math.Ldexp(1, j)+d, -math.Ldexp(1, j)+d)
			}
		}
		for _, k := range ks {
			around(k * 2 * eps)
			around((k + 0.5) * 2 * eps)
		}
		flush()
	}
}

// TestVectorKernelsEnumerate64 is the float64 counterpart. The space
// cannot be strided usefully, so it visits only where a decision can flip:
// the same code boundaries, 64 ulps either side, and the edges of every
// binade.
func TestVectorKernelsEnumerate64(t *testing.T) {
	needAVX2(t)
	const L = 8
	for _, eps := range enumEps {
		var vals []float64
		around := func(x float64) {
			c := math.Float64bits(x)
			for d := -64; d <= 64; d++ {
				vals = append(vals, math.Float64frombits(c+uint64(d)))
			}
		}
		for k := -64; k <= 64; k++ {
			around(float64(k) * 2 * eps)
			around((float64(k) + 0.5) * 2 * eps)
		}
		for j := 7; j <= 31; j++ {
			for _, d := range []float64{-1, 0, 1} {
				for _, k := range []float64{math.Ldexp(1, j) + d, -math.Ldexp(1, j) + d} {
					around(k * 2 * eps)
					around((k + 0.5) * 2 * eps)
				}
			}
		}
		for e := uint64(0); e < 0x7FF; e += 3 {
			for _, sign := range []uint64{0, 1 << 63} {
				for d := uint64(0); d < 4; d++ {
					vals = append(vals, math.Float64frombits(sign|e<<52+d), math.Float64frombits(sign|(e+1)<<52-1-d))
				}
			}
		}
		data := make([]float64, L*len(vals))
		for i, v := range vals {
			data[L*i+i%L] = v
		}
		vec64.check(t, data, eps, Options{BlockLen: L, Workers: 1}, nil, func(b int) string {
			return fmt.Sprintf("bits %016x in lane %d", math.Float64bits(vals[b]), b%L)
		})
	}
}

// hostileBody builds a well-formed body no encoder would write: n blocks of
// L elements of elemSize bytes whose header picks, byte by byte from pick,
// a zero block, a verbatim block or any fixed length, and whose payload —
// signs, planes, raw elements — comes from fill. The scan passes it, so it
// is the kernels that see it: the prefix sum wraps, widths change from
// block to block, verbatim blocks send the run back to Go.
func hostileBody(n, L, hdr, elemSize int, pick func() byte, fill func([]byte)) []byte {
	var body []byte
	for b := 0; b < n; b++ {
		w := pick() % (flenc.MaxWidth + 3) // 33: verbatim; 34: another zero block
		payload := (int(w) + 1) * L / 8
		switch {
		case w == flenc.MaxWidth+1:
			w, payload = widthVerbatim, L*elemSize
		case w == flenc.MaxWidth+2 || w == 0:
			w, payload = 0, 0
		}
		body = append(body, w)
		if hdr == flenc.HeaderU32 {
			high := byte(0)
			if w == widthVerbatim {
				high = 0xFF
			}
			body = append(body, high, high, high)
		}
		at := len(body)
		body = append(body, make([]byte, payload)...)
		fill(body[at:])
	}
	return body
}

// compareHostile decodes the same picks and payload as a float32 and as a
// float64 stream on every kernel set, the last block cut short.
func compareHostile(t *testing.T, n, L, hdr int, eps float64, pick func() byte, fill func([]byte)) {
	t.Helper()
	m := Meta{HeaderBytes: hdr, BlockLen: L, Elements: n*L - 5, Eps: eps}
	ok32 := compareDecode(t, vec32, append(AppendStreamHeader(nil, m), hostileBody(n, L, hdr, 4, pick, fill)...))
	m.Elem = Float64
	ok64 := compareDecode(t, vec64, append(AppendStreamHeader(nil, m), hostileBody(n, L, hdr, 8, pick, fill)...))
	if !ok32 || !ok64 {
		t.Fatalf("L=%d hdr=%d n=%d: a hostile body was refused; it must reach the kernels", L, hdr, n)
	}
}

// TestVectorDecodeHostile feeds every decoder runs of hostileBody blocks:
// every width in turn with random planes and signs, then long runs of
// random kinds. The scan has already sized everything the kernel touches;
// this checks the kernel's arithmetic on the values hostile input can
// reach and its bookkeeping from one block to the next.
func TestVectorDecodeHostile(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(5))
	fill := func(p []byte) { rng.Read(p) }
	for _, L := range []int{8, 32, 72} {
		for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
			for w := 1; w <= flenc.MaxWidth; w++ {
				compareHostile(t, 3, L, hdr, 0.25, func() byte { return byte(w) }, fill)
			}
			for iter := 0; iter < 30; iter++ {
				compareHostile(t, 1+rng.Intn(60), L, hdr, 0.25, func() byte { return byte(rng.Intn(256)) }, fill)
			}
		}
	}
}

// compareDecode decodes comp on the Go kernels and on every vector set:
// same error or same bits. It reports whether comp decoded.
func compareDecode[F float32 | float64](t *testing.T, c vecCodec[F], comp []byte) bool {
	t.Helper()
	var goOut []F
	var goErr error
	on(kernelSets[0], func() { goOut, _, goErr = c.decompress(nil, comp, 1) })
	for _, set := range vectorSets() {
		var asmOut []F
		var asmErr error
		on(set, func() { asmOut, _, asmErr = c.decompress(nil, comp, 1) })
		if (goErr == nil) != (asmErr == nil) {
			t.Fatalf("%s: Go decoder: %v, %s decoder: %v", c.name, goErr, set.Name, asmErr)
		}
		if len(goOut) != len(asmOut) {
			t.Fatalf("%s: decoded %d elements on Go, %d on %s", c.name, len(goOut), len(asmOut), set.Name)
		}
		for i := range goOut {
			if c.bits(goOut[i]) != c.bits(asmOut[i]) {
				t.Fatalf("%s: element %d decodes to %x on the Go kernel, %x on %s", c.name, i, c.bits(goOut[i]), c.bits(asmOut[i]), set.Name)
			}
		}
	}
	return goErr == nil
}

// FuzzVectorKernels runs arbitrary element bits, bounds across the whole
// ε ladder, block lengths and header widths through every kernel set, then
// treats the same bytes as a hostile stream body for every decoder.
func FuzzVectorKernels(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 1, 2, 3, 4}, uint8(3), false, int8(-10), uint16(0))
	f.Add(make([]byte, 400), uint8(0), true, int8(0), uint16(0x8000))
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0}, uint8(11), false, int8(40), uint16(0xffff))
	f.Add(prescanSeed32(1e-3, 150), uint8(3), false, int8(-10), uint16(0x624d))
	f.Add(prescanSeed64(1e-6, 61), uint8(0), true, int8(-20), uint16(0x0c6f))
	f.Fuzz(func(t *testing.T, raw []byte, blockSel uint8, szpHeader bool, epsExp int8, epsMant uint16) {
		needAVX2(t)
		// ε = (1 + mant/2¹⁶)·2^exp, exp ∈ [−40, 40].
		eps := math.Ldexp(1+float64(epsMant)/65536, int(epsExp)%41)
		opts := Options{BlockLen: 8 * (1 + int(blockSel)%32), HeaderBytes: flenc.HeaderU32, Workers: 1}
		if szpHeader {
			opts.HeaderBytes = flenc.HeaderU8
		}
		none := func(int) string { return "fuzz" }
		d32 := make([]float32, len(raw)/4)
		for i := range d32 {
			d32[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		vec32.check(t, d32, eps, opts, nil, none)
		d64 := make([]float64, len(raw)/8)
		for i := range d64 {
			d64[i] = math.Float64frombits(uint64(math.Float32bits(d32[2*i])) | uint64(math.Float32bits(d32[2*i+1]))<<32)
		}
		vec64.check(t, d64, eps, opts, nil, none)

		// As a body, raw is refused by the scan at the first byte that is
		// not a header; as the picks and payload of a hostile body it gets
		// whole runs to the kernels.
		m := Meta{HeaderBytes: opts.HeaderBytes, BlockLen: opts.BlockLen, Elements: 2*opts.BlockLen - 3, Eps: eps}
		compareDecode(t, vec32, append(AppendStreamHeader(nil, m), raw...))
		m.Elem = Float64
		compareDecode(t, vec64, append(AppendStreamHeader(nil, m), raw...))
		if len(raw) > 0 {
			at := 0
			next := func() byte { at++; return raw[at%len(raw)] }
			compareHostile(t, 2+len(raw)/8, opts.BlockLen, opts.HeaderBytes, eps, next, func(p []byte) {
				for i := range p {
					p[i] = next()
				}
			})
		}
	})
}
