package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"ceresz/internal/flenc"
	"ceresz/internal/quant"
)

// encodeOne runs one block of at most L elements through the production
// path, a run of one, and returns its bytes and its width-table entry.
func encodeOne[F float32 | float64](e *blockEncoder[F], dst []byte, block []F) ([]byte, byte) {
	var w [1]byte
	return e.encodeBlocks(dst, block, w[:]), w[0]
}

// boundaryEps sweeps ε over 2⁻⁴⁰…2⁴⁰ with a random mantissa at every
// exponent, plus the extremes where 2ε or its reciprocal leave the normal
// range and the prescan must switch itself off.
func boundaryEps() []float64 {
	rng := rand.New(rand.NewSource(12))
	var out []float64
	for k := -40; k <= 40; k++ {
		out = append(out, math.Ldexp(1, k), math.Ldexp(1+rng.Float64(), k))
	}
	return append(out,
		5e-324, 1e-310, 2.5e-309, 3e-309, math.Ldexp(1, -1022), // 1/(2ε) overflows below ≈2.8e-309
		1e-46, 1e-42, math.SmallestNonzeroFloat32, // float32(ε) underflows or is subnormal
		math.MaxFloat32, 2*math.MaxFloat32, 1e300, // ε at and beyond the float32 range
		8e307, math.MaxFloat64/2, math.MaxFloat64) // 1/(2ε) subnormal, then 2ε = +Inf
}

// boundaryValues are the lane values the issue names, around threshold t:
// ±t, the first value outside on either side, zeros, subnormals, ±ε, NaN,
// ±Inf, and a few random values up to 2t.
func boundaryValues[F float32 | float64](t F, eps float64, nextUp func(F) F, smallest, maxSub F, rng *rand.Rand) []F {
	inf := F(math.Inf(1))
	vals := []F{0, F(math.Copysign(0, -1)), smallest, -smallest, maxSub, -maxSub,
		F(eps), -F(eps), F(math.NaN()), inf, -inf}
	if t >= 0 {
		up := nextUp(t)
		vals = append(vals, t, -t, up, -up)
		for i := 0; i < 4; i++ {
			vals = append(vals, F(float64(t)*2*rng.Float64()), -F(float64(t)*2*rng.Float64()))
		}
	}
	return vals
}

// checkBoundaryBlocks builds blocks of length L from a background value
// with one boundary value in every lane position in turn, and the same
// shapes cut short so that encode pads them, and requires encode to agree
// with the stage chain on bytes and on the width entry.
func checkBoundaryBlocks[F float32 | float64](t *testing.T, enc *blockEncoder[F], ref *blockRef[F], L int, eps float64, backgrounds, vals []F) {
	t.Helper()
	block := make([]F, L)
	var got, want []byte
	for _, bg := range backgrounds {
		for _, v := range vals {
			for lane := 0; lane < L; lane++ {
				for _, n := range []int{L, L - 3} {
					if lane >= n {
						continue
					}
					for i := range block {
						block[i] = bg
					}
					block[lane] = v
					var gw, ww byte
					got, gw = encodeOne(enc, got[:0], block[:n])
					want, ww = ref.encode(want[:0], block[:n])
					if !bytes.Equal(got, want) || gw != ww {
						t.Fatalf("eps=%g L=%d n=%d background=%g lane %d = %g:\n encode %x width %d\n chain  %x width %d",
							eps, L, n, bg, lane, v, got, gw, want, ww)
					}
				}
			}
		}
	}
}

// checkThreshold pins what zeroThreshold promises against the stage chain
// alone: a block of ±t is a zero block, a block holding the next value
// beyond t on both sides is not, and when the threshold is switched off
// not even an all-zero block is.
func checkThreshold[F float32 | float64](t *testing.T, ref *blockRef[F], L int, eps float64, thr F, nextUp func(F) F) {
	t.Helper()
	refZero := func(a, b F) bool {
		src := make([]F, L)
		for i := range src {
			src[i] = a
			if i%2 == 1 {
				src[i] = b
			}
		}
		_, w := ref.encode(nil, src)
		return w == 0
	}
	if thr < 0 {
		if refZero(0, 0) {
			t.Fatalf("eps=%g: threshold is off but the reference stores an all-zero block as a zero block", eps)
		}
		return
	}
	if !refZero(thr, -thr) {
		t.Fatalf("eps=%g: ±t = ±%g is not a zero block under the reference", eps, thr)
	}
	if up := nextUp(thr); refZero(up, -up) {
		t.Fatalf("eps=%g: t = %g is not maximal, ±%g is still a zero block", eps, thr, up)
	}
}

func TestZeroPrescanBoundary32(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	nextUp := func(x float32) float32 { return math.Nextafter32(x, float32(math.Inf(1))) }
	for _, eps := range boundaryEps() {
		q, err := quant.MakeQuantizer(eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, L := range []int{8, 32} {
			enc, ref := getEncoder[float32](L, flenc.HeaderU32, q), newBlockRef[float32](L, flenc.HeaderU32, eps)
			checkThreshold(t, ref, L, eps, enc.zeroT, nextUp)
			vals := boundaryValues(enc.zeroT, eps, nextUp, math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), rng)
			bgs := []float32{0}
			if enc.zeroT > 0 {
				bgs = append(bgs, enc.zeroT, -enc.zeroT)
			}
			checkBoundaryBlocks(t, enc, ref, L, eps, bgs, vals)
		}
	}
}

func TestZeroPrescanBoundary64(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	nextUp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for _, eps := range boundaryEps() {
		q, err := quant.MakeQuantizer(eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, L := range []int{8, 32} {
			enc, ref := getEncoder[float64](L, flenc.HeaderU32, q), newBlockRef[float64](L, flenc.HeaderU32, eps)
			checkThreshold(t, ref, L, eps, enc.zeroT, nextUp)
			vals := boundaryValues(enc.zeroT, eps, nextUp, math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), rng)
			bgs := []float64{0}
			if enc.zeroT > 0 {
				bgs = append(bgs, enc.zeroT, -enc.zeroT)
			}
			checkBoundaryBlocks(t, enc, ref, L, eps, bgs, vals)
		}
	}
}

// TestZeroPrescanRandomBlocks is the property half: random ε, random
// blocks scaled so that a good share sit inside, outside and across the
// threshold.
func TestZeroPrescanRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const L = 32
	var zero, other int
	for iter := 0; iter < 4000; iter++ {
		eps := math.Ldexp(1+rng.Float64(), rng.Intn(81)-40)
		q, err := quant.MakeQuantizer(eps)
		if err != nil {
			t.Fatal(err)
		}
		enc32, ref32 := getEncoder[float32](L, flenc.HeaderU32, q), newBlockRef[float32](L, flenc.HeaderU32, eps)
		enc64, ref64 := getEncoder[float64](L, flenc.HeaderU8, q), newBlockRef[float64](L, flenc.HeaderU8, eps)
		scale := eps * []float64{0.5, 1, 1.02, 3}[iter%4]
		b32 := make([]float32, L)
		b64 := make([]float64, L)
		for i := range b64 {
			b64[i] = scale * (2*rng.Float64() - 1)
			b32[i] = float32(b64[i])
		}
		got, gw := encodeOne(enc32, nil, b32)
		want, ww := ref32.encode(nil, b32)
		if !bytes.Equal(got, want) || gw != ww {
			t.Fatalf("float32 eps=%g scale=%g: encode %x width %d, chain %x width %d", eps, scale, got, gw, want, ww)
		}
		if gw == 0 {
			zero++
		} else {
			other++
		}
		got, gw = encodeOne(enc64, nil, b64)
		want, ww = ref64.encode(nil, b64)
		if !bytes.Equal(got, want) || gw != ww {
			t.Fatalf("float64 eps=%g scale=%g: encode %x width %d, chain %x width %d", eps, scale, got, gw, want, ww)
		}
	}
	if zero < 500 || other < 500 {
		t.Fatalf("property test is lopsided: %d zero blocks, %d others", zero, other)
	}
}

// TestMergeSignMatchesFlenc runs every 16-lane sign pattern through the
// branch-free merge and through flenc.MergeSigns, over magnitudes that
// include 0, 2³¹ (|MinInt32|, whose negation is itself) and values above it.
func TestMergeSignMatchesFlenc(t *testing.T) {
	abs := []uint32{0, 1, 2, 0x7fffffff, 0x80000000, 0x80000001, 0xffffffff, 12345,
		0x80000000, 0, 0xfffffffe, 7, 1 << 30, 3 << 30, 0x55555555, 0xaaaaaaaa}
	want := make([]int32, len(abs))
	var signs [2]byte
	for pattern := 0; pattern < 1<<16; pattern++ {
		binary.LittleEndian.PutUint16(signs[:], uint16(pattern))
		flenc.MergeSigns(want, abs, signs[:])
		for i, u := range abs {
			if got := mergeSign(u, uint32(signs[i>>3]>>(i&7))&1); got != want[i] {
				t.Fatalf("pattern %#04x lane %d: mergeSign(%#x) = %d, flenc.MergeSigns gives %d", pattern, i, u, got, want[i])
			}
		}
	}
}

// prescanSeed32 is a fuzz seed holding the boundary shapes for ε as raw
// little-endian float32s: n values cycling through ±t, the first values
// outside, zeros, subnormals, ±ε, NaN and ±Inf.
func prescanSeed32(eps float64, n int) []byte {
	q, _ := quant.MakeQuantizer(eps)
	t := zeroThreshold[float32](&q)
	up := math.Nextafter32(t, float32(math.Inf(1)))
	vals := []float32{t, -t, 0, float32(math.Copysign(0, -1)), t, 1e-45, -t, -1e-45,
		t, t, t, t, -t, -t, -t, up, -up, float32(eps), -float32(eps),
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	raw := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(vals[i%len(vals)]))
	}
	return raw
}

// prescanSeed64 is prescanSeed32 for float64 streams.
func prescanSeed64(eps float64, n int) []byte {
	q, _ := quant.MakeQuantizer(eps)
	t := zeroThreshold[float64](&q)
	up := math.Nextafter(t, math.Inf(1))
	vals := []float64{t, -t, 0, math.Copysign(0, -1), t, 5e-324, -t, -5e-324,
		t, t, t, t, -t, -t, -t, up, -up, eps, -eps, math.NaN(), math.Inf(1), math.Inf(-1)}
	raw := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(vals[i%len(vals)]))
	}
	return raw
}
