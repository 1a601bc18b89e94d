// Package quant implements CereSZ pre-quantization (paper §3, step ①):
// the conversion of floating-point values into error-bounded integer codes
//
//	p_i = round(e_i / (2ε))
//
// and its inverse e'_i = p_i · 2ε. Quantization is the only lossy step of
// the compressor; |e_i − e'_i| ≤ ε is guaranteed for every element whose
// code fits in an int32 (others are reported so the caller can fall back to
// verbatim storage).
//
// Matching the paper's implementation (§4.2, Table 2), the division is
// realized as a multiplication with the reciprocal of 2ε and the rounding as
// an addition of 0.5 followed by a floor. The two halves are exported
// separately (Mul, Round) because the WSE mapping schedules them as distinct
// pipeline sub-stages.
package quant

import (
	"errors"
	"fmt"
	"math"
)

// Mode selects how a Bound's Value is interpreted.
type Mode int

const (
	// Abs interprets Value as an absolute error bound ε.
	Abs Mode = iota
	// Rel interprets Value as a value-range-based relative bound λ:
	// ε = λ · (max − min) of the dataset (paper §5.1.3).
	Rel
)

func (m Mode) String() string {
	switch m {
	case Abs:
		return "ABS"
	case Rel:
		return "REL"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Bound is a user-specified error bound.
type Bound struct {
	Mode  Mode
	Value float64
}

// ABS returns an absolute error bound ε.
func ABS(eps float64) Bound { return Bound{Mode: Abs, Value: eps} }

// REL returns a value-range-relative error bound λ.
func REL(lambda float64) Bound { return Bound{Mode: Rel, Value: lambda} }

func (b Bound) String() string {
	return fmt.Sprintf("%s %.3g", b.Mode, b.Value)
}

// ErrNonPositiveBound is returned when a resolved ε is not strictly positive.
var ErrNonPositiveBound = errors.New("quant: error bound must be positive")

// Resolve converts the bound into an absolute ε for data spanning
// [minVal, maxVal]. For Rel bounds on constant data (range 0) the resolved
// bound degenerates; Resolve substitutes the smallest positive ε that keeps
// the arithmetic finite, which losslessly preserves constant fields.
func (b Bound) Resolve(minVal, maxVal float64) (float64, error) {
	switch b.Mode {
	case Abs:
		if !(b.Value > 0) || math.IsInf(b.Value, 0) || math.IsNaN(b.Value) {
			return 0, ErrNonPositiveBound
		}
		return b.Value, nil
	case Rel:
		if !(b.Value > 0) || math.IsInf(b.Value, 0) || math.IsNaN(b.Value) {
			return 0, ErrNonPositiveBound
		}
		r := maxVal - minVal
		if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
			// Constant (or empty) field: any positive ε bounds the error.
			return b.Value, nil
		}
		return b.Value * r, nil
	default:
		return 0, fmt.Errorf("quant: unknown bound mode %d", int(b.Mode))
	}
}

// Range returns the min and max of data. NaNs are ignored; if all values are
// NaN (or data is empty) it returns (0, 0).
func Range(data []float32) (minVal, maxVal float64) {
	mn, mx := range32(data)
	return float64(mn), float64(mx)
}

// Range64 is Range for float64 data.
func Range64(data []float64) (minVal, maxVal float64) {
	return range64(data)
}

// rangeOf is the portable loop behind Range and Range64 and the reference
// the vector kernels (range_amd64.s) are tested against. It compares in
// the element type: float32 → float64 is exact and order-preserving, so
// converting the two results gives what converting every element would.
// Once the leading NaNs are skipped the loop needs no NaN test, because
// v < mn and v > mx are both false for NaN.
func rangeOf[F float32 | float64](data []F) (mn, mx F) {
	i := 0
	for i < len(data) && data[i] != data[i] {
		i++
	}
	if i == len(data) {
		return 0, 0
	}
	mn, mx = data[i], data[i]
	for _, v := range data[i+1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Quantizer holds the resolved parameters of a quantization pass.
type Quantizer struct {
	eps   float64 // absolute bound ε
	recip float64 // 1 / (2ε)
	twoE  float64 // 2ε
}

// MakeQuantizer returns a quantizer for absolute bound eps (must be > 0)
// by value, so callers embedding one in pooled state pay no allocation.
func MakeQuantizer(eps float64) (Quantizer, error) {
	if !(eps > 0) || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return Quantizer{}, ErrNonPositiveBound
	}
	return Quantizer{eps: eps, recip: 1 / (2 * eps), twoE: 2 * eps}, nil
}

// NewQuantizer returns a quantizer for absolute bound eps (must be > 0).
func NewQuantizer(eps float64) (*Quantizer, error) {
	q, err := MakeQuantizer(eps)
	if err != nil {
		return nil, err
	}
	return &q, nil
}

// Eps returns the absolute error bound ε.
func (q Quantizer) Eps() float64 { return q.eps }

// Recip returns 1/(2ε), the multiplier used by the Mul sub-stage.
func (q Quantizer) Recip() float64 { return q.recip }

// TwoEps returns 2ε, the reconstruction multiplier.
func (q Quantizer) TwoEps() float64 { return q.twoE }

// Reconstructs reports whether code p reconstructs x within ε once the
// reconstruction p·2ε is rounded to x's element type. p·2ε is within ε
// of x in float64 whenever p = round(x/(2ε)), but the rounding to the
// element type adds up to half an ulp of x, so where ε < ulp(x)/2 (a
// tight bound on a large magnitude) no code honours the bound and the
// block holding x is stored verbatim: the fixed-length analogue of SZ's
// unpredictable data. NaN x fails. Every encoder's strictness check is
// this predicate.
func Reconstructs[F float32 | float64](q Quantizer, p int32, x F) bool {
	rec := F(float64(p) * q.twoE)
	return math.Abs(float64(rec)-float64(x)) <= q.eps
}

// Mul executes the multiplication sub-stage: dst[i] = src[i] · 1/(2ε).
// dst and src must have equal length (dst may alias src).
func (q *Quantizer) Mul(dst, src []float64) { mul(q, dst, src) }

// MulF32 is Mul for float32 input, producing float64 scaled values.
func (q *Quantizer) MulF32(dst []float64, src []float32) { mul(q, dst, src) }

func mul[F float32 | float64](q *Quantizer, dst []float64, src []F) {
	if len(dst) != len(src) {
		panic("quant: Mul length mismatch")
	}
	for i, v := range src {
		dst[i] = float64(v) * q.recip
	}
}

// Round executes the rounding sub-stage: dst[i] = floor(src[i] + 0.5).
// ok reports whether every code fits in an int32; when ok is false the
// caller must store the affected block verbatim. NaN input also yields
// ok == false.
func Round(dst []int32, src []float64) (ok bool) {
	if len(dst) != len(src) {
		panic("quant: Round length mismatch")
	}
	ok = true
	for i, v := range src {
		f := math.Floor(v + 0.5)
		if math.IsNaN(f) || f > math.MaxInt32 || f < math.MinInt32 {
			dst[i] = 0
			ok = false
			continue
		}
		dst[i] = int32(f)
	}
	return ok
}

// Quantize runs both sub-stages over a float32 slice:
// dst[i] = round(src[i]/(2ε)). It reports whether all codes fit in int32.
func (q *Quantizer) Quantize(dst []int32, src []float32) (ok bool) { return quantize(q, dst, src) }

// Quantize64 is Quantize for float64 input.
func (q *Quantizer) Quantize64(dst []int32, src []float64) (ok bool) { return quantize(q, dst, src) }

func quantize[F float32 | float64](q *Quantizer, dst []int32, src []F) (ok bool) {
	if len(dst) != len(src) {
		panic("quant: Quantize length mismatch")
	}
	ok = true
	for i, v := range src {
		// The explicit conversion rounds the product before the add. Without
		// it Go may fuse x*y + z into one FMA — it does on arm64, ppc64le,
		// s390x and riscv64, never on amd64 — and a value on a code boundary
		// would quantize differently there than under the AVX2 kernels, which
		// multiply and add separately. Every v*recip + 0.5 in the codec is
		// written this way.
		f := math.Floor(float64(float64(v)*q.recip) + 0.5)
		if math.IsNaN(f) || f > math.MaxInt32 || f < math.MinInt32 {
			dst[i] = 0
			ok = false
			continue
		}
		dst[i] = int32(f)
	}
	return ok
}

// Dequantize reconstructs float32 values: dst[i] = src[i] · 2ε.
func (q *Quantizer) Dequantize(dst []float32, src []int32) { dequantize(q, dst, src) }

// Dequantize64 reconstructs float64 values.
func (q *Quantizer) Dequantize64(dst []float64, src []int32) { dequantize(q, dst, src) }

func dequantize[F float32 | float64](q *Quantizer, dst []F, src []int32) {
	if len(dst) != len(src) {
		panic("quant: Dequantize length mismatch")
	}
	for i, p := range src {
		dst[i] = F(float64(p) * q.twoE)
	}
}
