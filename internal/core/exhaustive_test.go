package core

import (
	"math"
	"math/rand"
	"testing"

	"ceresz/internal/kerneltest"
	"ceresz/internal/quant"
)

// TestBoundOnFloat32Sample is a stratified slice of the exhaustive check
// over every finite float32: for an ε ladder it sends a sample of every
// binade, subnormals included, through the strictness predicate
// (quantizeStrict, which is quant.Reconstructs behind the range check) and
// through the codec on every kernel set. Each value fills a block of its
// own, so the block's fate is the value's: the codec must decode it to
// p·2ε rounded to float32 where the predicate accepts code p — and that
// reconstruction is within ε — and to the value itself, stored verbatim,
// where it refuses. zeroThreshold must be exactly maximal: ±t quantize to
// code 0, and the next float32 above t does not.
func TestBoundOnFloat32Sample(t *testing.T) {
	var ladder []float64
	for _, k := range []int{-40, -20, 0, 20, 40} {
		e := math.Ldexp(1, k)
		ladder = append(ladder, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
	}
	rel, err := quant.REL(1e-3).Resolve(float64(float32(-3.7)), float64(float32(12.9)))
	if err != nil {
		t.Fatal(err)
	}
	ladder = append(ladder, rel)

	// perBinade mantissas of each of the 255 finite exponents, both signs:
	// the binade's first and last value and random ones between.
	const perBinade, L = 64, 8
	rng := rand.New(rand.NewSource(7))
	var sample []float32
	for exp := uint32(0); exp < 255; exp++ {
		for i := 0; i < perBinade; i++ {
			mant := rng.Uint32() & 0x7fffff
			switch i {
			case 0:
				mant = 0
			case 1:
				mant = 0x7fffff
			}
			x := math.Float32frombits(exp<<23 | mant)
			sample = append(sample, x, -x)
		}
	}

	for _, eps := range ladder {
		q, err := quant.MakeQuantizer(eps)
		if err != nil {
			t.Fatal(err)
		}
		thr := zeroThreshold[float32](&q)
		if thr < 0 {
			t.Fatalf("eps=%g: the zero threshold is off", eps)
		}
		up := math.Nextafter32(thr, float32(math.Inf(1)))
		for _, x := range []float32{thr, -thr} {
			if p, ok := quantizeStrict(q, x); !ok || p != 0 {
				t.Fatalf("eps=%g: %g is inside the threshold %g but quantizes to %d (ok %v)", eps, x, thr, p, ok)
			}
		}
		if p, ok := quantizeStrict(q, up); ok && p == 0 {
			t.Fatalf("eps=%g: threshold %g is not maximal, %g also quantizes to 0", eps, thr, up)
		}

		values := append([]float32{thr, -thr, up, -up}, sample...)
		data := make([]float32, 0, L*len(values))
		want := make([]float32, len(values))
		for i, x := range values {
			for j := 0; j < L; j++ {
				data = append(data, x)
			}
			want[i] = x
			if p, ok := quantizeStrict(q, x); ok {
				want[i] = float32(float64(p) * q.TwoEps())
				if !(math.Abs(float64(want[i])-float64(x)) <= eps) {
					t.Fatalf("eps=%g: %g passes the predicate with code %d but reconstructs to %g", eps, x, p, want[i])
				}
			}
		}
		kerneltest.Each(t, kernelSets, func(t *testing.T) {
			comp, _, err := CompressWithEps(nil, data, eps, Options{BlockLen: L, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := Decompress(nil, comp, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range values {
				for j := i * L; j < (i+1)*L; j++ {
					if math.Float32bits(out[j]) != math.Float32bits(want[i]) {
						t.Fatalf("eps=%g: %g (%#08x) decodes to %g, want %g", eps, x, math.Float32bits(x), out[j], want[i])
					}
				}
			}
		})
	}
}
