//go:build amd64 && !purego

package quant

import "ceresz/internal/cpufeat"

// useAVX2 selects the assembly Range kernels. Tests flip it to run the
// vector and the Go loops side by side.
var useAVX2 = cpufeat.AVX2

//go:noescape
func rangeF32AVX2(p *float32, n int, seed float32) (mn, mx float32)

//go:noescape
func rangeF64AVX2(p *float64, n int, seed float64) (mn, mx float64)

// rangeVector returns what rangeOf returns, up to the sign of a zero:
// where the data holds both +0 and −0 and zero is its minimum or maximum,
// rangeOf reports the first it met and the vector kernel whichever its lane
// order leaves. The two compare equal, and every ε resolved from them is the
// same bit pattern: x − (±0) and (±0) − x do not depend on the sign of the
// zero, and a range of ±0 takes Resolve's constant-field branch either way.
//
// The kernel takes a non-NaN seed and whole strides (stride elements, a
// power of two); the seed is found exactly as rangeOf finds it and the tail
// is finished here.
func rangeVector[F float32 | float64](data []F, stride int, kernel func(p *F, n int, seed F) (mn, mx F)) (mn, mx F) {
	if !useAVX2 {
		return rangeOf(data)
	}
	i := 0
	for i < len(data) && data[i] != data[i] {
		i++
	}
	n := (len(data) - i) &^ (stride - 1)
	if n == 0 {
		return rangeOf(data[i:])
	}
	mn, mx = kernel(&data[i], n, data[i])
	for _, v := range data[i+n:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

func range32(data []float32) (mn, mx float32) { return rangeVector(data, 32, rangeF32AVX2) }
func range64(data []float64) (mn, mx float64) { return rangeVector(data, 16, rangeF64AVX2) }
