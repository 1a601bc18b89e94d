package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPaperRunningExample(t *testing.T) {
	// Paper §3, Fig. 5: ε = 0.01 (the text's worked example divides by
	// 2ε = 0.02), value 0.83 quantizes to round(0.83/0.02) ≈ 42 — the paper
	// prints 4 for brevity but the arithmetic it states is 0.83/0.02.
	// Reconstruction error must stay within ε.
	q, err := NewQuantizer(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var codes [1]int32
	if ok := q.Quantize(codes[:], []float32{0.83}); !ok {
		t.Fatal("unexpected overflow")
	}
	// float32(0.83) sits just below the exact value, so the scaled number
	// 41.4999… may round to 41 rather than 42; either code satisfies the
	// bound, which is the property the paper's example demonstrates.
	if codes[0] != 41 && codes[0] != 42 {
		t.Fatalf("code = %d, want 41 or 42", codes[0])
	}
	var rec [1]float64
	q.Dequantize64(rec[:], codes[:])
	if e := math.Abs(rec[0] - float64(float32(0.83))); e > 0.01 {
		t.Fatalf("reconstruction error %g exceeds ε", e)
	}
}

func TestBoundResolve(t *testing.T) {
	cases := []struct {
		name     string
		b        Bound
		min, max float64
		want     float64
		wantErr  bool
	}{
		{"abs passthrough", ABS(0.5), -1, 1, 0.5, false},
		{"rel scales by range", REL(1e-2), -3, 7, 0.1, false},
		{"rel constant data", REL(1e-3), 5, 5, 1e-3, false},
		{"abs zero rejected", ABS(0), 0, 1, 0, true},
		{"abs negative rejected", ABS(-1), 0, 1, 0, true},
		{"rel zero rejected", REL(0), 0, 1, 0, true},
		{"abs NaN rejected", ABS(math.NaN()), 0, 1, 0, true},
		{"abs Inf rejected", ABS(math.Inf(1)), 0, 1, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.b.Resolve(c.min, c.max)
			if c.wantErr {
				if err == nil {
					t.Fatalf("Resolve = %g, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-c.want) > 1e-15 {
				t.Fatalf("Resolve = %g, want %g", got, c.want)
			}
		})
	}
}

func TestRange(t *testing.T) {
	minV, maxV := Range([]float32{3, -1, 7, 2})
	if minV != -1 || maxV != 7 {
		t.Fatalf("Range = (%g,%g), want (-1,7)", minV, maxV)
	}
	minV, maxV = Range(nil)
	if minV != 0 || maxV != 0 {
		t.Fatalf("Range(nil) = (%g,%g), want (0,0)", minV, maxV)
	}
	minV, maxV = Range([]float32{float32(math.NaN()), 2, float32(math.NaN()), -5})
	if minV != -5 || maxV != 2 {
		t.Fatalf("Range with NaNs = (%g,%g), want (-5,2)", minV, maxV)
	}
}

func TestRange64(t *testing.T) {
	minV, maxV := Range64([]float64{math.NaN(), 1.5, -2.5})
	if minV != -2.5 || maxV != 1.5 {
		t.Fatalf("Range64 = (%g,%g)", minV, maxV)
	}
}

// rangeRef is the loop Range and Range64 ran before they compared in the
// element type: convert every element to float64, test it for NaN, then
// compare. It is kept as the reference the compare-only scan must match.
func rangeRef[F float32 | float64](data []F) (minVal, maxVal float64) {
	first := true
	for _, v := range data {
		f := float64(v)
		if math.IsNaN(f) {
			continue
		}
		if first {
			minVal, maxVal = f, f
			first = false
			continue
		}
		if f < minVal {
			minVal = f
		}
		if f > maxVal {
			maxVal = f
		}
	}
	return minVal, maxVal
}

// TestRangeMatchesReferenceLoop compares the scan with rangeRef on the
// shapes that could tell them apart — NaNs leading, trailing, interleaved
// and alone, empty input, zeros of both signs, infinities — and on random
// data salted with them. Min and max must agree to the bit (sign of zero
// included), and so must the ε a REL bound resolves to.
func TestRangeMatchesReferenceLoop(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := [][]float64{
		nil,
		{},
		{nan},
		{nan, nan, nan},
		{nan, nan, 3, 1, 2},
		{3, 1, 2, nan, nan},
		{nan, 5, nan, -5, nan},
		{7},
		{nan, 7},
		{0, negZero},
		{negZero, 0},
		{nan, negZero, 0, negZero},
		{0, negZero, 1},
		{negZero, 0, -1},
		{inf, 1, -inf},
		{-inf, nan, inf},
		{inf, inf},
		{1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1},
		{1e-45, -1e-45, 5e-324},
	}
	rng := rand.New(rand.NewSource(3))
	salt := []float64{nan, inf, -inf, 0, negZero}
	for i := 0; i < 300; i++ {
		data := make([]float64, rng.Intn(70))
		for j := range data {
			switch {
			case rng.Intn(6) == 0:
				data[j] = salt[rng.Intn(len(salt))]
			default:
				data[j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(60)-30)
			}
		}
		cases = append(cases, data)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, d64 := range cases {
		d32 := make([]float32, len(d64))
		for i, v := range d64 {
			d32[i] = float32(v)
		}
		check := func(elem string, gotMin, gotMax, wantMin, wantMax float64) {
			t.Helper()
			if !same(gotMin, wantMin) || !same(gotMax, wantMax) {
				t.Fatalf("%s %v: range (%g, %g), reference loop (%g, %g)", elem, d64, gotMin, gotMax, wantMin, wantMax)
			}
			got, gotErr := REL(1e-3).Resolve(gotMin, gotMax)
			want, wantErr := REL(1e-3).Resolve(wantMin, wantMax)
			if !same(got, want) || gotErr != wantErr {
				t.Fatalf("%s %v: REL resolves to %g (%v), reference %g (%v)", elem, d64, got, gotErr, want, wantErr)
			}
		}
		gotMin, gotMax := Range(d32)
		wantMin, wantMax := rangeRef(d32)
		check("float32", gotMin, gotMax, wantMin, wantMax)
		gotMin, gotMax = Range64(d64)
		wantMin, wantMax = rangeRef(d64)
		check("float64", gotMin, gotMax, wantMin, wantMax)
	}
}

func TestMulRoundMatchesQuantize(t *testing.T) {
	// The two-sub-stage path (Mul then Round, as scheduled on the WSE
	// pipeline) must agree exactly with the fused Quantize.
	q, _ := NewQuantizer(1e-3)
	src := []float32{0.1, -0.25, 3.75, -100, 0, 42.42, -0.0005, 0.0005}
	scaled := make([]float64, len(src))
	staged := make([]int32, len(src))
	fused := make([]int32, len(src))
	q.MulF32(scaled, src)
	if !Round(staged, scaled) {
		t.Fatal("staged path overflowed")
	}
	if !q.Quantize(fused, src) {
		t.Fatal("fused path overflowed")
	}
	for i := range src {
		if staged[i] != fused[i] {
			t.Fatalf("element %d: staged %d != fused %d", i, staged[i], fused[i])
		}
	}
}

func TestRoundOverflow(t *testing.T) {
	dst := make([]int32, 3)
	ok := Round(dst, []float64{1e20, 0, -1e20})
	if ok {
		t.Fatal("Round accepted values beyond int32")
	}
	ok = Round(dst, []float64{math.NaN(), 0, 1})
	if ok {
		t.Fatal("Round accepted NaN")
	}
	ok = Round(dst, []float64{float64(math.MaxInt32), float64(math.MinInt32), 0})
	if !ok {
		t.Fatal("Round rejected representable extremes")
	}
}

func TestQuantizeOverflowDetection(t *testing.T) {
	q, _ := NewQuantizer(1e-12)
	dst := make([]int32, 1)
	if ok := q.Quantize(dst, []float32{1e6}); ok {
		t.Fatal("expected overflow for 1e6 at ε=1e-12")
	}
	if ok := q.Quantize(dst, []float32{float32(math.NaN())}); ok {
		t.Fatal("expected overflow flag for NaN input")
	}
}

func TestDequantize64(t *testing.T) {
	q, _ := NewQuantizer(0.5)
	out := make([]float64, 3)
	q.Dequantize64(out, []int32{-2, 0, 3})
	want := []float64{-2, 0, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], want[i])
		}
	}
}

// Property: for any finite float32, the quantize→dequantize round trip
// respects the error bound in exact (float64) arithmetic. The residual
// float32 output rounding — up to half a ulp of the value — is handled one
// layer up, by internal/core's verbatim fallback.
func TestQuickErrorBound(t *testing.T) {
	q, _ := NewQuantizer(1e-3)
	f := func(raw uint32) bool {
		v := math.Float32frombits(raw)
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e5 {
			return true // out of scope: overflow path covered elsewhere
		}
		var code [1]int32
		if !q.Quantize(code[:], []float32{v}) {
			return true
		}
		var rec [1]float64
		q.Dequantize64(rec[:], code[:])
		// Tolerance: ε plus the float64 rounding of the p·2ε product,
		// which is relative to the value's magnitude.
		tol := 1e-3 + math.Abs(float64(v))*4e-16
		return math.Abs(rec[0]-float64(v)) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization is monotone — larger inputs never produce smaller
// codes (floor(x+0.5) is monotone in x, and Mul preserves order for ε>0).
func TestQuickMonotone(t *testing.T) {
	q, _ := NewQuantizer(1e-2)
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.Abs(float64(a)) > 1e6 || math.Abs(float64(b)) > 1e6 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		var ca, cb [1]int32
		if !q.Quantize(ca[:], []float32{a}) || !q.Quantize(cb[:], []float32{b}) {
			return true
		}
		return ca[0] <= cb[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewQuantizerRejectsBadEps(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewQuantizer(eps); err == nil {
			t.Fatalf("NewQuantizer(%g) succeeded, want error", eps)
		}
	}
}

// TestQuantizeRoundsTwice pins the arithmetic every host must agree on:
// the product v·(1/2ε) is rounded to float64 before 0.5 is added, as the
// AVX2 kernels do with a separate multiply and add. A fused multiply-add
// keeps the exact product, and the two disagree where the sum is coarser
// than the product: just under the boundary between codes 0 and 1 (v a
// hair below ε), a product that rounds up to 0.5 − 2⁻⁵⁴ sums to a tie and
// becomes code 1, while the exact product sums to just under 1 and stays
// code 0. This test finds such values (math.FMA computes what a fusing
// compiler would) and holds Quantize64 to the twice-rounded code. On
// amd64 Go never fuses and it cannot fail; on arm64, ppc64le, s390x and
// riscv64 it fails if the explicit conversion in Quantize is dropped.
func TestQuantizeRoundsTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	found := 0
	for i := 0; i < 100_000 && found < 8; i++ {
		q, err := NewQuantizer(math.Ldexp(1+rng.Float64(), rng.Intn(40)-30))
		if err != nil {
			t.Fatal(err)
		}
		v := q.Eps()
		for j := 0; j < 4; j++ {
			v = math.Nextafter(v, 0)
			twice := math.Floor(float64(v*q.Recip()) + 0.5)
			fused := math.Floor(math.FMA(v, q.Recip(), 0.5))
			if twice == fused {
				continue
			}
			found++
			var code [1]int32
			if !q.Quantize64(code[:], []float64{v}) || float64(code[0]) != twice {
				t.Fatalf("ε = %x, v = %x: Quantize64 = %d, want the twice-rounded %v (fused gives %v)",
					q.Eps(), v, code[0], twice, fused)
			}
		}
	}
	if found == 0 {
		t.Fatal("search found no value where fused and twice-rounded codes differ; the test checks nothing")
	}
}
