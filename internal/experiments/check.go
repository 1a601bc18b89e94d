package experiments

import (
	"bytes"
	"fmt"
	"io"

	"ceresz/internal/baselines"
	"ceresz/internal/core"
	"ceresz/internal/datasets"
	"ceresz/internal/mapping"
	"ceresz/internal/metrics"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// CheckResult is the self-check outcome: one line per invariant.
type CheckResult struct {
	// Passed and Failed list invariant descriptions.
	Passed, Failed []string
}

// OK reports whether every invariant held.
func (c *CheckResult) OK() bool { return len(c.Failed) == 0 }

func (c *CheckResult) check(ok bool, what string) {
	if ok {
		c.Passed = append(c.Passed, what)
	} else {
		c.Failed = append(c.Failed, what)
	}
}

// Check runs the repository's key functional invariants in one pass — a
// user-facing smoke test (`cereszbench check`) mirroring what the unit
// tests pin down:
//
//  1. the error bound holds pointwise for every compressor on a sample;
//  2. the simulated WSE pipeline emits bytes identical to the host
//     compressor (compression and decompression, multiple mesh shapes);
//  3. the pre-quantization family shares one reconstruction;
//  4. format ratio caps (32× / 128×) are never exceeded.
func Check(cfg Config) (*CheckResult, error) {
	cfg = cfg.WithDefaults()
	res := &CheckResult{}

	ds, err := datasets.ByName("NYX", cfg.Scale)
	if err != nil {
		return nil, err
	}
	f := &ds.Fields[3]
	data := f.Data(cfg.Seed)
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(1e-3).Resolve(minV, maxV)
	if err != nil {
		return nil, err
	}

	// 1. Bound for every compressor (CereSZ + extended baselines).
	comp, stats, err := core.CompressWithEps(nil, data, eps, core.Options{})
	if err != nil {
		return nil, err
	}
	rec, _, err := core.Decompress(nil, comp, 0)
	if err != nil {
		return nil, err
	}
	maxErr, err := metrics.MaxAbsError(data, rec)
	if err != nil {
		return nil, err
	}
	res.check(maxErr <= stats.Eps, fmt.Sprintf("CereSZ bound: max |err| %.3g ≤ ε %.3g", maxErr, stats.Eps))
	for _, c := range baselines.ExtendedSuite() {
		bc, err := c.Compress(data, f.Dims, eps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		brec, err := c.Decompress(bc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		be, err := metrics.MaxAbsError(data, brec)
		if err != nil {
			return nil, err
		}
		// Baselines reconstruct into float32 without the strict fallback;
		// allow the half-ulp residue.
		slack := eps * (1 + 1e-9)
		var worstUlp float64
		for _, v := range data {
			u := ulp32(v)
			if u > worstUlp {
				worstUlp = u
			}
		}
		res.check(be <= slack+worstUlp/2,
			fmt.Sprintf("%s bound: max |err| %.3g ≤ ε(+ulp/2)", c.Name(), be))
	}

	// 2. Pipeline = host, both directions.
	sample := data[:32*256]
	hostC, _, err := core.CompressWithEps(nil, sample, eps, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	for _, shape := range []struct {
		mesh wse.Config
		pl   int
	}{
		{wse.Config{Rows: 1, Cols: 4}, 1},
		{wse.Config{Rows: 2, Cols: 6}, 3},
	} {
		chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
		if err != nil {
			return nil, err
		}
		plan, err := mapping.NewPlan(chain, mapping.PlanConfig{Mesh: shape.mesh, PipelineLen: shape.pl})
		if err != nil {
			return nil, err
		}
		simR, err := plan.Compress(sample)
		if err != nil {
			return nil, err
		}
		res.check(bytes.Equal(simR.Bytes, hostC),
			fmt.Sprintf("pipeline=host bytes on %dx%d mesh, pipeline length %d",
				shape.mesh.Rows, shape.mesh.Cols, shape.pl))
	}
	dchain, err := stages.NewDecompressChain(stages.Config{Eps: eps, EstWidth: 8})
	if err != nil {
		return nil, err
	}
	dplan, err := mapping.NewPlan(dchain, mapping.PlanConfig{Mesh: wse.Config{Rows: 2, Cols: 4}, PipelineLen: 2})
	if err != nil {
		return nil, err
	}
	dsim, err := dplan.Decompress(hostC)
	if err != nil {
		return nil, err
	}
	dhost, _, err := core.Decompress(nil, hostC, 0)
	if err != nil {
		return nil, err
	}
	same := len(dsim.Data) == len(dhost)
	if same {
		for i := range dhost {
			if dsim.Data[i] != dhost[i] {
				same = false
				break
			}
		}
	}
	res.check(same, "pipeline=host decompression")

	// 3. Shared reconstruction across the pre-quantization family.
	szp, err := (baselines.SZp{}).Compress(data, f.Dims, eps)
	if err != nil {
		return nil, err
	}
	szpRec, err := (baselines.SZp{}).Decompress(szp)
	if err != nil {
		return nil, err
	}
	identical := len(szpRec) == len(rec)
	if identical {
		for i := range rec {
			if szpRec[i] != rec[i] {
				identical = false
				break
			}
		}
	}
	res.check(identical, "CereSZ and SZp reconstructions bit-identical")

	// 4. Ratio caps over the whole dataset set.
	capsOK := true
	for _, d2 := range datasets.All(cfg.Scale) {
		n := len(d2.Fields)
		if cfg.MaxFieldsPerDataset > 0 && n > cfg.MaxFieldsPerDataset {
			n = cfg.MaxFieldsPerDataset
		}
		for i := 0; i < n; i++ {
			fd := &d2.Fields[i]
			fdata := fd.Data(cfg.Seed)
			lo, hi := quant.Range(fdata)
			feps, err := quant.REL(1e-2).Resolve(lo, hi)
			if err != nil {
				return nil, err
			}
			_, s32, err := core.CompressWithEps(nil, fdata, feps, core.Options{})
			if err != nil {
				return nil, err
			}
			if s32.Ratio() > 32 {
				capsOK = false
			}
		}
	}
	res.check(capsOK, "CereSZ 32x ratio cap holds on every field")

	return res, nil
}

// ulp32 returns the distance to the next float32 above |v|.
func ulp32(v float32) float64 {
	f := float64(v)
	if f < 0 {
		f = -f
	}
	return f * 1.2e-7
}

// PrintCheck renders the self-check.
func PrintCheck(w io.Writer, r *CheckResult) {
	section(w, "Self-check: functional invariants")
	for _, p := range r.Passed {
		fmt.Fprintf(w, "  PASS %s\n", p)
	}
	for _, f := range r.Failed {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	if r.OK() {
		fmt.Fprintln(w, "all invariants hold")
	} else {
		fmt.Fprintf(w, "%d invariant(s) FAILED\n", len(r.Failed))
	}
}
