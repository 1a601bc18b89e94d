package core

import (
	"math"

	"ceresz/internal/quant"
)

// Data-adaptive fast paths shared by the float32 and float64 codecs: the
// encoders' zero-block prescan and the decoders' branch-free sign merge.
// Both leave every output byte as the fused kernels alone would make it,
// are chosen from the data alone, and add nothing configurable and no
// stream-format byte (DESIGN.md §5b2).

// quantizeStrict is fusedForward's per-element arithmetic: quantize
// (multiply by 1/(2ε), add 0.5, floor), the int32 range check that also
// fails NaN and ±Inf, and the strictness check (quant.Reconstructs).
func quantizeStrict[F float32 | float64](q quant.Quantizer, x F) (p int32, ok bool) {
	// The product is rounded before the add on every host (quant.Quantize).
	f := math.Floor(float64(float64(x)*q.Recip()) + 0.5)
	if !(f >= math.MinInt32 && f <= math.MaxInt32) {
		return 0, false
	}
	p = int32(f)
	return p, quant.Reconstructs(q, p, x)
}

// noZeroThreshold is the zeroThreshold no magnitude satisfies: allWithin
// asks for x ≤ −1 and x ≥ 1 at once.
const noZeroThreshold = -1

// zeroThreshold returns the largest t such that every x with |x| ≤ t
// quantizes to code 0 and passes the strictness check, so that a block
// whose magnitudes are all ≤ t is a zero block whatever else is true of
// it.
//
// Every step of quantizeStrict's code — multiply by a positive constant,
// add 0.5, round, floor — is monotone non-decreasing in x, so the set
// {x ≥ 0 : code(x) = 0} is an interval [0, a], its mirror image holds for
// x ≤ 0, and with code 0 the strictness check is |x| ≤ ε, another
// interval around 0. t is therefore found by walking down from ε until
// +t and −t both pass: ε·fl(1/(2ε)) is within a few ulps of the rounding
// boundary ½, so the walk is a handful of steps. F(ε) may have rounded up
// past ε or to +Inf; both fail the test and are stepped over. When 2ε or
// its reciprocal overflows, x = 0 itself goes verbatim (0·Inf is NaN) and
// no block may take the shortcut.
func zeroThreshold[F float32 | float64](q *quant.Quantizer) F {
	isZero := func(x F) bool {
		p, ok := quantizeStrict(*q, x)
		return ok && p == 0
	}
	if !isZero(0) {
		return noZeroThreshold
	}
	t := F(q.Eps())
	for t > 0 && !(isZero(t) && isZero(-t)) {
		t = nextTowardZero(t)
	}
	return t
}

// nextTowardZero returns the F next to x > 0 on the side of zero.
func nextTowardZero[F float32 | float64](x F) F {
	if x32, ok := any(x).(float32); ok {
		return F(math.Nextafter32(x32, 0))
	}
	return F(math.Nextafter(float64(x), 0))
}

// allWithin reports whether every element of src has magnitude ≤ t. NaN
// fails both comparisons and ±Inf exceeds any finite t. It exits at the
// first element outside, which on data without zero blocks is nearly
// always the first element of the block.
func allWithin[F float32 | float64](src []F, t F) bool {
	for _, x := range src {
		if !(x <= t && x >= -t) {
			return false
		}
	}
	return true
}

// mergeSign returns the signed code for magnitude u and sign bit neg (0 or
// 1): u for 0, the two's-complement negation for 1, without a branch. It
// inverts fusedForward's sign split and equals flenc.MergeSigns element
// for element, u = 2³¹ (|MinInt32|) included.
func mergeSign(u, neg uint32) int32 {
	return int32((u ^ -neg) + neg)
}
