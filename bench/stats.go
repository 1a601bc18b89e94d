package main

import (
	"math"
	"sort"
)

// percentile returns the rank-interpolated p-th percentile (0 < p < 100)
// of sorted. supported reports whether at least ten samples lie beyond it
// — the choosing-metrics rule for quoting a tail; callers that must print
// a number anyway flag the run as small-sample when it is false.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
	return v, n-1-hi >= 10
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	v, _ := percentile(s, 50)
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so -compare's
// spread is the number the acceptance check computes. It needs two
// samples; with fewer both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// span is one layer-boundary interval of one operation. Spans of the same
// operation share opID; parent names the span of the rung above that
// carried the same payload (−1 for the top rung).
type span struct {
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	OpID   int64
	Parent int // index into the span slice, −1 = root
}

// selfTimes reduces spans to per-layer self time: a span's duration minus
// the part of its interval its children cover. The ladder's children are
// replays, not sub-intervals, so a child "covers" min(child, parent) of the
// parent. The result maps span name → one self time (ns) per span.
func selfTimes(spans []span) map[string][]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		d := s.End - s.Start
		if pd := spans[s.Parent].End - spans[s.Parent].Start; d > pd {
			d = pd
		}
		covered[s.Parent] += d
	}
	out := map[string][]float64{}
	for i, s := range spans {
		self := s.End - s.Start - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}
