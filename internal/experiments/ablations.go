package experiments

import (
	"fmt"
	"io"
	"time"

	"ceresz/internal/core"
	"ceresz/internal/datasets"
	"ceresz/internal/flenc"
	"ceresz/internal/huffman"
	"ceresz/internal/lorenzo"
	"ceresz/internal/mapping"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Ablations beyond the paper's figures: each isolates one design decision
// DESIGN.md calls out — the 32-element block (§5.1.1), the 4-byte header
// (§5.1.1 / Observation 2), fixed-length vs Huffman encoding (§3), and the
// zero-block fast path (§5.2).

// BlockSizeRow is one point of the block-length sweep.
type BlockSizeRow struct {
	BlockLen int
	AvgRatio float64
}

// BlockSizeAblation sweeps the block length over the Hurricane and NYX
// fields at REL 1e-3 and reports the average CereSZ ratio. The paper picks
// 32 as the ratio-optimal choice among WSE-compatible sizes; the sweep
// shows the trade it balances (smaller blocks amortize the 4-byte header
// worse; larger blocks capture fewer all-zero runs and take their fixed
// length from a wider window).
func BlockSizeAblation(cfg Config) ([]BlockSizeRow, error) {
	cfg = cfg.WithDefaults()
	var fields []fieldSpec
	for _, name := range []string{"Hurricane", "NYX"} {
		ds, err := datasets.ByName(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		n := len(ds.Fields)
		if cfg.MaxFieldsPerDataset > 0 && n > cfg.MaxFieldsPerDataset {
			n = cfg.MaxFieldsPerDataset
		}
		for i := 0; i < n; i++ {
			fields = append(fields, fieldSpec{ds: ds, idx: i})
		}
	}
	var rows []BlockSizeRow
	for _, L := range []int{8, 16, 32, 64, 128, 256} {
		var sum float64
		for _, fs := range fields {
			f := &fs.ds.Fields[fs.idx]
			data := f.Data(cfg.Seed)
			minV, maxV := quant.Range(data)
			eps, err := quant.REL(1e-3).Resolve(minV, maxV)
			if err != nil {
				return nil, err
			}
			_, stats, err := core.CompressWithEps(nil, data, eps, core.Options{BlockLen: L})
			if err != nil {
				return nil, err
			}
			sum += stats.Ratio()
		}
		rows = append(rows, BlockSizeRow{BlockLen: L, AvgRatio: sum / float64(len(fields))})
	}
	return rows, nil
}

type fieldSpec struct {
	ds  *datasets.Dataset
	idx int
}

// HeaderAblationRow compares the 4-byte and 1-byte header formats.
type HeaderAblationRow struct {
	Dataset  string
	Rel      float64
	RatioU32 float64 // CereSZ
	RatioU8  float64 // SZp format
	Penalty  float64 // RatioU8 / RatioU32
}

// HeaderAblation quantifies Observation 2: the 32-bit message-granularity
// header costs ratio, most at loose bounds (where zero blocks dominate and
// the header is the whole block) and least at tight bounds.
func HeaderAblation(cfg Config) ([]HeaderAblationRow, error) {
	cfg = cfg.WithDefaults()
	var rows []HeaderAblationRow
	for _, name := range []string{"NYX", "RTM"} {
		ds, err := datasets.ByName(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		for _, rel := range RelBounds {
			r32, err := runFields(ds, rel, cfg, flenc.HeaderU32)
			if err != nil {
				return nil, err
			}
			r8, err := runFields(ds, rel, cfg, flenc.HeaderU8)
			if err != nil {
				return nil, err
			}
			var s32, s8 float64
			for i := range r32 {
				s32 += r32[i].stats.Ratio()
				s8 += r8[i].stats.Ratio()
			}
			s32 /= float64(len(r32))
			s8 /= float64(len(r8))
			rows = append(rows, HeaderAblationRow{
				Dataset: name, Rel: rel,
				RatioU32: s32, RatioU8: s8, Penalty: s8 / s32,
			})
		}
	}
	return rows, nil
}

// EncodingAblationResult compares fixed-length encoding against Huffman
// coding of the same quantized Lorenzo residuals (the cuSZ route CereSZ
// §3 rejects for throughput reasons).
type EncodingAblationResult struct {
	Dataset          string
	FixedRatio       float64
	HuffmanRatio     float64
	FixedNsPerElem   float64
	HuffmanNsPerElem float64
}

// EncodingAblation measures both codecs on one CESM-like field at REL
// 1e-3: Huffman buys ratio (entropy-optimal code lengths, no per-block
// header) and pays heavily in encoder time (codebook construction and
// bit-serial emission are also the parts that resist the WSE's pipeline
// decomposition).
func EncodingAblation(cfg Config) (*EncodingAblationResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := datasets.ByName("CESM-ATM", cfg.Scale)
	if err != nil {
		return nil, err
	}
	f := &ds.Fields[1]
	data := f.Data(cfg.Seed)
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(1e-3).Resolve(minV, maxV)
	if err != nil {
		return nil, err
	}

	// Fixed-length path (CereSZ).
	t0 := time.Now()
	_, stats, err := core.CompressWithEps(nil, data, eps, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	fixedNs := float64(time.Since(t0).Nanoseconds()) / float64(len(data))

	// Huffman path over the same codes: quantize, block-local Lorenzo,
	// global codebook (cuSZ-style bins with escapes).
	q, err := quant.NewQuantizer(eps)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	codes := make([]int32, len(data))
	if !q.Quantize(codes, data) {
		return nil, fmt.Errorf("experiments: field not quantizable")
	}
	for b := 0; b*32 < len(codes); b++ {
		lo := b * 32
		hi := min(lo+32, len(codes))
		lorenzo.Forward(codes[lo:hi], codes[lo:hi])
	}
	symbols := make([]uint32, len(codes))
	var outliers int
	for i, c := range codes {
		if c >= -512 && c < 512 {
			symbols[i] = uint32(c + 512)
		} else {
			symbols[i] = 1024
			outliers++
		}
	}
	cb, payload, err := huffman.EncodeAll(symbols)
	if err != nil {
		return nil, err
	}
	huffNs := float64(time.Since(t0).Nanoseconds()) / float64(len(data))
	huffBytes := len(payload) + 5*cb.Len() + 4*outliers + core.StreamHeaderSize

	return &EncodingAblationResult{
		Dataset:          ds.Name,
		FixedRatio:       stats.Ratio(),
		HuffmanRatio:     float64(4*len(data)) / float64(huffBytes),
		FixedNsPerElem:   fixedNs,
		HuffmanNsPerElem: huffNs,
	}, nil
}

// ZeroBlockAblationResult quantifies the §5.2 zero-block fast path.
type ZeroBlockAblationResult struct {
	Dataset              string
	Rel                  float64
	ZeroBlockFrac        float64
	WithGBps, SansGBps   float64 // modeled throughput with/without the fast path
	WithRatio, SansRatio float64
}

// ZeroBlockAblation disables the zero-block shortcut on RTM (the paper's
// most zero-heavy dataset): without it every zero block is encoded as a
// one-bit-plane block and pays the full Bit-shuffle step.
func ZeroBlockAblation(cfg Config) (*ZeroBlockAblationResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := datasets.ByName("RTM", cfg.Scale)
	if err != nil {
		return nil, err
	}
	rel := 1e-2
	runs, err := runFields(ds, rel, cfg, flenc.HeaderU32)
	if err != nil {
		return nil, err
	}

	var zeroBlocks, blocks int
	var withBytes, sansBytes int64
	withW := mapping.Workload{AvgInputWavelets: 32}
	sansW := mapping.Workload{AvgInputWavelets: 32}
	var eps float64
	for _, r := range runs {
		zeroBlocks += r.stats.ZeroBlocks
		blocks += r.stats.Blocks
		withBytes += int64(r.stats.CompressedBytes)
		sansBytes += int64(r.stats.CompressedBytes)
		// Without the shortcut a zero block becomes a width-1 block:
		// +(signs + one plane) bytes and width-1 costs.
		sansBytes += int64(r.stats.ZeroBlocks * 2 * flenc.PlaneBytes(32))
		withW.Blocks += r.stats.Blocks
		withW.Elements += r.stats.Elements
		withW.VerbatimBlocks += r.stats.VerbatimBlocks
		sansW.Blocks += r.stats.Blocks
		sansW.Elements += r.stats.Elements
		sansW.VerbatimBlocks += r.stats.VerbatimBlocks
		for w, c := range r.stats.WidthHistogram {
			withW.WidthHist[w] += c
			if w == 0 {
				sansW.WidthHist[1] += c // pays one bit plane
			} else {
				sansW.WidthHist[w] += c
			}
		}
		eps = r.eps
	}
	chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
	if err != nil {
		return nil, err
	}
	plan, err := mapping.NewPlan(chain, mapping.PlanConfig{Mesh: PaperMesh, PipelineLen: 1})
	if err != nil {
		return nil, err
	}
	pWith, err := plan.Project(withW)
	if err != nil {
		return nil, err
	}
	pSans, err := plan.Project(sansW)
	if err != nil {
		return nil, err
	}
	origBytes := float64(4 * withW.Elements)
	return &ZeroBlockAblationResult{
		Dataset:       ds.Name,
		Rel:           rel,
		ZeroBlockFrac: float64(zeroBlocks) / float64(blocks),
		WithGBps:      pWith.SteadyThroughputGBps,
		SansGBps:      pSans.SteadyThroughputGBps,
		WithRatio:     origBytes / float64(withBytes),
		SansRatio:     origBytes / float64(sansBytes),
	}, nil
}

// TunerResult wraps the §4.4 pipeline-length selection demo.
type TunerResult struct {
	Unconstrained  int // fast feed, ample memory → 1 (the paper's result)
	SlowFeed       int // feed-bound: longer pipelines stop hurting
	TightMemoryErr error
	Points         []mapping.TuningPoint
}

// Tuner runs SelectPipelineLength under the three §4.4 regimes.
func Tuner(cfg Config) (*TunerResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := datasets.ByName("QMCPack", cfg.Scale)
	if err != nil {
		return nil, err
	}
	data := ds.Fields[0].Data(cfg.Seed)
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(1e-3).Resolve(minV, maxV)
	if err != nil {
		return nil, err
	}
	stats, err := hostStats(data, eps)
	if err != nil {
		return nil, err
	}
	w := mapping.Workload{
		Blocks:           stats.Blocks,
		Elements:         stats.Elements,
		WidthHist:        stats.WidthHistogram,
		VerbatimBlocks:   stats.VerbatimBlocks,
		AvgInputWavelets: 32,
	}
	mesh := wse.Config{Rows: 64, Cols: 64}

	chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
	if err != nil {
		return nil, err
	}
	res := &TunerResult{}
	res.Unconstrained, res.Points, err = mapping.SelectPipelineLength(chain, mesh, w, mapping.TunerConstraints{})
	if err != nil {
		return nil, err
	}
	res.SlowFeed, _, err = mapping.SelectPipelineLength(chain, mesh, w, mapping.TunerConstraints{
		InputWaveletsPerCycle: 0.005, // a trickle: feed-bound regime
	})
	if err != nil {
		return nil, err
	}
	// Assumption 2: memory too small for any pipeline length.
	bigChain, err := stages.NewCompressChain(stages.Config{BlockLen: 8192, Eps: eps, EstWidth: 8})
	if err != nil {
		return nil, err
	}
	_, _, res.TightMemoryErr = mapping.SelectPipelineLength(bigChain, wse.Config{Rows: 1, Cols: 2, MemPerPE: 4096}, w, mapping.TunerConstraints{})
	return res, nil
}

// PrintAblations renders all ablations.
func PrintAblations(w io.Writer, blocks []BlockSizeRow, headers []HeaderAblationRow,
	enc *EncodingAblationResult, zero *ZeroBlockAblationResult, tuner *TunerResult) {
	section(w, "Ablation: block length (REL 1e-3, Hurricane + NYX; paper §5.1.1 picks 32)")
	fmt.Fprintf(w, "%10s %12s\n", "block len", "avg ratio")
	for _, r := range blocks {
		fmt.Fprintf(w, "%10d %12.2f\n", r.BlockLen, r.AvgRatio)
	}

	section(w, "Ablation: 4-byte vs 1-byte block headers (Observation 2)")
	fmt.Fprintf(w, "%-8s %-9s %10s %10s %10s\n", "Dataset", "REL", "u32", "u8", "penalty")
	for _, r := range headers {
		fmt.Fprintf(w, "%-8s %-9.0e %10.2f %10.2f %9.2fx\n", r.Dataset, r.Rel, r.RatioU32, r.RatioU8, r.Penalty)
	}

	section(w, "Ablation: fixed-length vs Huffman encoding (§3 design rationale)")
	fmt.Fprintf(w, "%s: fixed-length ratio %.2f at %.1f ns/elem; Huffman ratio %.2f at %.1f ns/elem (%.1fx slower to encode)\n",
		enc.Dataset, enc.FixedRatio, enc.FixedNsPerElem, enc.HuffmanRatio, enc.HuffmanNsPerElem,
		enc.HuffmanNsPerElem/enc.FixedNsPerElem)

	section(w, "Ablation: zero-block fast path (§5.2)")
	fmt.Fprintf(w, "%s REL %.0e: %.0f%% zero blocks; with fast path %.1f GB/s ratio %.2f; without %.1f GB/s ratio %.2f\n",
		zero.Dataset, zero.Rel, 100*zero.ZeroBlockFrac, zero.WithGBps, zero.WithRatio, zero.SansGBps, zero.SansRatio)

	section(w, "Pipeline-length tuner (§4.4)")
	fmt.Fprintf(w, "unconstrained: pipeline length %d (paper: 1); feed-bound: %d; tight memory: %v\n",
		tuner.Unconstrained, tuner.SlowFeed, tuner.TightMemoryErr)
	fmt.Fprintf(w, "%14s %16s %s\n", "pipeline len", "GB/s", "feasible")
	for _, p := range tuner.Points {
		fmt.Fprintf(w, "%14d %16.2f %v %s\n", p.PipelineLen, p.ThroughputGBps, p.Feasible, p.Reason)
	}
}
