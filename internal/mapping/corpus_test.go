package mapping

import (
	"testing"

	"ceresz/internal/formattest"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// TestFormatCorpus runs the corpus's simulated-pipeline row
// (formattest.SimRow) through the wafer on two mesh shapes: the stream and
// the reconstruction must hash to the row's committed digests, as the host
// codec's do.
func TestFormatCorpus(t *testing.T) {
	r := formattest.SimRow()
	data := formattest.Data[float32](r)
	cfg := stages.Config{BlockLen: r.BlockLen, HeaderBytes: r.HeaderBytes, Eps: r.Bound, EstWidth: 8}
	for _, pc := range []PlanConfig{
		{Mesh: wse.Config{Rows: 2, Cols: 6}, PipelineLen: 2},
		{Mesh: wse.Config{Rows: 3, Cols: 4, Workers: 3}, PipelineLen: 1},
	} {
		cc, err := stages.NewCompressChain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(cc, pc)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := stages.NewDecompressChain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan, err = NewPlan(dc, pc); err != nil {
			t.Fatal(err)
		}
		dec, err := plan.Decompress(comp.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if msg := r.Mismatch(comp.Bytes, formattest.SumFloats(dec.Data)); msg != "" {
			t.Error(msg)
		}
	}
}
