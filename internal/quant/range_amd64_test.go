//go:build amd64 && !purego

package quant

import (
	"math"
	"math/rand"
	"testing"

	"ceresz/internal/cpufeat"
	"ceresz/internal/kerneltest"
)

// kernelSets are the Range implementations: the Go loop and the AVX2
// kernels.
var kernelSets = []kerneltest.Set{
	{Name: "go", Have: true, Flags: []*bool{&useAVX2}, On: []bool{false}},
	{Name: "avx2", Have: cpufeat.AVX2, Flags: []*bool{&useAVX2}, On: []bool{true}},
}

// vectorAndGo runs Range and Range64 on data with the vector kernels on and
// off. Min and max must compare equal (the sign of a zero endpoint is the
// one thing allowed to differ, see range_amd64.go) and every REL bound must
// resolve to the same bit pattern.
func vectorAndGo(t *testing.T, d64 []float64) {
	t.Helper()
	d32 := make([]float32, len(d64))
	for i, v := range d64 {
		d32[i] = float32(v)
	}
	run := func(s kerneltest.Set) (r [4]float64) {
		defer s.Use()()
		r[0], r[1] = Range(d32)
		r[2], r[3] = Range64(d64)
		return r
	}
	goR, asmR := run(kernelSets[0]), run(kernelSets[1])
	for i := range goR {
		if goR[i] != asmR[i] {
			t.Fatalf("n=%d: endpoint %d is %g on the Go loop, %g on the vector kernel", len(d64), i, goR[i], asmR[i])
		}
	}
	for _, lambda := range []float64{1e-2, 1e-3, 1e-4} {
		for i := 0; i < 4; i += 2 {
			want, wantErr := REL(lambda).Resolve(goR[i], goR[i+1])
			got, gotErr := REL(lambda).Resolve(asmR[i], asmR[i+1])
			if math.Float64bits(got) != math.Float64bits(want) || gotErr != wantErr {
				t.Fatalf("n=%d: REL %g resolves to %x (%v) from the vector range, %x (%v) from the Go range",
					len(d64), lambda, math.Float64bits(got), gotErr, math.Float64bits(want), wantErr)
			}
		}
	}
}

func TestRangeVectorMatchesGo(t *testing.T) {
	if !kernelSets[1].Have {
		t.Skip("CPU has no AVX2: the Go loop is the only path")
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(9))
	salt := []float64{nan, inf, -inf, 0, negZero, math.MaxFloat32, -math.MaxFloat32, 1e-45, -1e-45}
	pool := make([]float64, 700)
	// Every length around the kernels' strides (32 float32, 16 float64),
	// every start offset within a vector, with and without salt; the
	// extreme is planted in each position of a stride in turn.
	for _, salted := range []bool{false, true} {
		for n := 0; n < 140; n++ {
			for off := 0; off < 9; off++ {
				d := pool[off : off+n]
				for i := range d {
					d[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
					if salted && rng.Intn(5) == 0 {
						d[i] = salt[rng.Intn(len(salt))]
					}
				}
				vectorAndGo(t, d)
			}
		}
	}
	d := pool[3 : 3+200]
	for pos := 0; pos < 72; pos++ {
		for i := range d {
			d[i] = rng.Float64()
		}
		d[pos], d[199-pos] = -5, 7
		vectorAndGo(t, d)
		d[pos], d[199-pos] = nan, nan
		vectorAndGo(t, d)
		// The extremes, then NaNs in their own lanes one stride later (16
		// elements for float64, 32 for float32): an accumulator that let a
		// NaN in would forget them.
		d[pos], d[pos+1] = -5, 7
		d[pos+16], d[pos+17], d[pos+32], d[pos+33] = nan, nan, nan, nan
		vectorAndGo(t, d)
	}
	// Leading NaNs move the seed; all-NaN and a NaN-only tail must not
	// reach the kernel with a NaN seed.
	for lead := 0; lead < 70; lead++ {
		d := pool[:lead+100]
		for i := range d {
			d[i] = rng.NormFloat64()
			if i < lead {
				d[i] = nan
			}
		}
		vectorAndGo(t, d)
		for i := range d {
			d[i] = nan
		}
		vectorAndGo(t, d)
	}
	// The documented difference: zeros of both signs as an endpoint. The
	// endpoints compare equal and ε is the same bits, whichever survives.
	for _, d := range [][]float64{
		append(make([]float64, 100), negZero),
		append([]float64{negZero}, make([]float64, 100)...),
	} {
		vectorAndGo(t, d)
		for i := range d {
			if i%3 == 0 {
				d[i] = 1
			}
		}
		vectorAndGo(t, d)
		for i := range d {
			if d[i] == 1 {
				d[i] = -1
			}
		}
		vectorAndGo(t, d)
	}
}
