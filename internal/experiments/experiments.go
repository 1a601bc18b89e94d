// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–§5) on the simulated substrate. Each experiment returns a
// structured result with the paper's reported values attached, and knows
// how to render itself as text; cmd/cereszbench and the repository-root
// benchmarks are thin wrappers around this package.
//
// Absolute CereSZ numbers come from the calibrated WSE cost model (event
// simulation for small meshes, the validated analytic model of Formulas
// (2)–(4) for full-wafer geometries); baseline throughputs come from
// internal/devmodel; ratios and reconstructions come from actually running
// all compressors on the synthetic datasets. See DESIGN.md §2 for the
// substitution rationale and EXPERIMENTS.md for recorded paper-vs-measured
// outcomes.
package experiments

import (
	"fmt"
	"io"

	"ceresz/internal/core"
	"ceresz/internal/datasets"
	"ceresz/internal/mapping"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Config selects the workload scale and determinism seed shared by all
// experiments.
type Config struct {
	// Scale selects dataset sizes (datasets.Small is the default; Medium
	// matches the harness's published numbers more closely, Full is heavy).
	Scale datasets.Scale
	// Seed drives every generator.
	Seed int64
	// MaxFieldsPerDataset truncates datasets for quick runs (0 = all).
	MaxFieldsPerDataset int
}

// WithDefaults fills zero values.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// RelBounds are the paper's three evaluation bounds (§5.2).
var RelBounds = []float64{1e-2, 1e-3, 1e-4}

// PaperMesh is the PE grid used for Figs. 11–12 (§5.2).
var PaperMesh = wse.Config{Rows: 512, Cols: 512}

// fieldRun holds one field compressed at one bound.
type fieldRun struct {
	field *datasets.Field
	data  []float32
	eps   float64
	comp  []byte
	stats *core.Stats
	hdr   int
}

// runFields compresses every field of the dataset at the REL bound with
// the CereSZ host compressor and returns the per-field results.
func runFields(ds *datasets.Dataset, rel float64, cfg Config, headerBytes int) ([]fieldRun, error) {
	fields := ds.Fields
	if cfg.MaxFieldsPerDataset > 0 && len(fields) > cfg.MaxFieldsPerDataset {
		fields = fields[:cfg.MaxFieldsPerDataset]
	}
	out := make([]fieldRun, 0, len(fields))
	for i := range fields {
		f := &fields[i]
		data := f.Data(cfg.Seed)
		minV, maxV := quant.Range(data)
		eps, err := quant.REL(rel).Resolve(minV, maxV)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", ds.Name, f.Name, err)
		}
		comp, stats, err := core.CompressWithEps(nil, data, eps, core.Options{HeaderBytes: headerBytes})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", ds.Name, f.Name, err)
		}
		out = append(out, fieldRun{field: f, data: data, eps: eps, comp: comp, stats: stats, hdr: headerBytes})
	}
	return out, nil
}

// projectThroughput returns modeled CereSZ throughput in GB/s for the runs
// on the given mesh, for one direction.
func projectThroughput(runs []fieldRun, mesh wse.Config, dir stages.Direction) (float64, error) {
	var totalBytes, totalSecs float64
	for _, r := range runs {
		var chain *stages.Chain[float32]
		var err error
		cfg := stages.Config{Eps: r.eps, EstWidth: 8, HeaderBytes: r.hdr}
		if dir == stages.Compress {
			chain, err = stages.NewCompressChain(cfg)
		} else {
			chain, err = stages.NewDecompressChain(cfg)
		}
		if err != nil {
			return 0, err
		}
		plan, err := mapping.NewPlan(chain, mapping.PlanConfig{Mesh: mesh, PipelineLen: 1})
		if err != nil {
			return 0, err
		}
		w := mapping.Workload{
			Blocks:         r.stats.Blocks,
			Elements:       r.stats.Elements,
			WidthHist:      r.stats.WidthHistogram,
			VerbatimBlocks: r.stats.VerbatimBlocks,
		}
		if dir == stages.Compress {
			w.AvgInputWavelets = float64(core.DefaultBlockLen)
		} else {
			body := len(r.comp) - core.StreamHeaderSize
			w.AvgInputWavelets = float64(body) / 4 / float64(r.stats.Blocks)
		}
		proj, err := plan.Project(w)
		if err != nil {
			return 0, err
		}
		// The paper streams whole multi-GB datasets through the wafer, so
		// the steady-state rate is the regime Figs. 11–12 measure; our
		// synthetic fields are far smaller than 512×512 PEs can absorb.
		totalBytes += float64(4 * r.stats.Elements)
		totalSecs += float64(4*r.stats.Elements) / (proj.SteadyThroughputGBps * 1e9)
	}
	if totalSecs == 0 {
		return 0, nil
	}
	return totalBytes / totalSecs / 1e9, nil
}

// section prints a titled separator.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// hostStats compresses data on the host and returns the block statistics.
func hostStats(data []float32, eps float64) (*core.Stats, error) {
	_, stats, err := core.CompressWithEps(nil, data, eps, core.Options{})
	return stats, err
}
