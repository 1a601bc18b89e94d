package main

import (
	"strings"
	"testing"
)

func TestRegressions(t *testing.T) {
	at := func(ns float64) *summary { return &summary{N: 1, MedianNsOp: ns} }
	diffs := []diff{
		{Name: "BenchmarkFaster", Old: at(100), New: at(60)},
		{Name: "BenchmarkInsideBand", Old: at(100), New: at(139)},
		{Name: "BenchmarkOutsideBand", Old: at(100), New: at(141)},
		{Name: "BenchmarkOnlyNew", New: at(500)},
		{Name: "BenchmarkOnlyOld", Old: at(500)},
	}
	bad := regressions(diffs, 40)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "BenchmarkOutsideBand:") {
		t.Fatalf("regressions(40) = %q, want only BenchmarkOutsideBand", bad)
	}
	if bad := regressions(diffs, 50); len(bad) != 0 {
		t.Fatalf("regressions(50) = %q, want none", bad)
	}
}
