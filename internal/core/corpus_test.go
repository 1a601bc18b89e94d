package core

import (
	"testing"

	"ceresz/internal/formattest"
	"ceresz/internal/kerneltest"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
)

// TestFormatCorpus holds the codec to the known-answer corpus
// (internal/formattest) on every kernel set, and the stage chain
// (compressRef, decompressRef) with it: each row's stream and decoded
// values must hash to the digests committed from the codec's bytes, at
// either worker count.
func TestFormatCorpus(t *testing.T) {
	check := func(t *testing.T, chain bool) {
		for _, r := range formattest.Rows() {
			if r.F64 {
				checkCorpusRow[float64](t, r, chain)
			} else {
				checkCorpusRow[float32](t, r, chain)
			}
		}
	}
	kerneltest.Each(t, kernelSets, func(t *testing.T) { check(t, false) })
	t.Run("chain", func(t *testing.T) { check(t, true) })
}

func checkCorpusRow[F rawfloat.Float](t *testing.T, r formattest.Row, chain bool) {
	t.Helper()
	bound := quant.ABS(r.Bound)
	if r.Rel {
		bound = quant.REL(r.Bound)
	}
	var stats Stats
	comp, err := compressBound(nil, formattest.Data[F](r), Options{Bound: bound, BlockLen: r.BlockLen, HeaderBytes: r.HeaderBytes, Workers: r.Workers}, &stats)
	if err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	out, m, err := decompress[F](nil, comp, r.Workers)
	if chain && err == nil {
		// The chain runs under the ε the codec resolved from the bound.
		if comp, err = compressRef(formattest.Data[F](r), m.Eps, Options{BlockLen: r.BlockLen, HeaderBytes: r.HeaderBytes}); err == nil {
			out, err = decompressRef[F](comp)
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	if msg := r.Mismatch(comp, formattest.SumFloats(out)); msg != "" {
		t.Error(msg)
	}
}
