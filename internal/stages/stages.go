// Package stages decomposes the CereSZ compression and decompression
// algorithms into the fine-grained sub-stages that the WSE mapping schedules
// onto processing elements (paper §4.2):
//
//	compression:    Mul → Add → Lorenzo → Sign → Max → GetLength →
//	                Shuffle[0] … Shuffle[k] → Emit
//	decompression:  Header → Unshuffle[0] … Unshuffle[k] → MergeSigns →
//	                PrefixSum → DeqMul
//
// Each sub-stage carries two things: a functional kernel that transforms a
// BlockState (the data really flowing through the simulated pipeline), and
// a cycle-cost function drawn from a CostModel calibrated against the
// paper's profiles (Tables 1–3). The per-bit Shuffle/Unshuffle sub-stages
// are the divisible units that make balanced distribution possible; Lorenzo
// and the prefix sum are indivisible (paper §4.2).
//
// The chain is the block codec's reference, for float32 and float64 alike:
// internal/core's fused kernels are tested against its bytes and decoded
// bits, and it is itself pinned to the known-answer corpus of
// internal/formattest. The simulated wafer runs float32 chains.
package stages

import (
	"fmt"
	"math"

	"ceresz/internal/flenc"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
)

// Direction distinguishes compression from decompression chains.
type Direction int

const (
	// Compress marks a compression chain.
	Compress Direction = iota
	// Decompress marks a decompression chain.
	Decompress
)

func (d Direction) String() string {
	if d == Compress {
		return "compress"
	}
	return "decompress"
}

// CostModel holds per-block cycle costs for a 32-element block; costs scale
// linearly with block length. The defaults are calibrated to the paper's
// measured profiles on the CS-2 (Tables 1–3): quantization splits into a
// multiplication (~83% of its time) and a rounding addition; Sign, Max and
// GetLength are constant; Bit-shuffle costs a uniform ~1976 cycles per
// effective bit (33609/17 ≈ 25675/13 ≈ 23694/12).
type CostModel struct {
	Mul           float64 // quantization multiply (Table 2)
	Add           float64 // quantization round  (Table 2)
	Lorenzo       float64 // first-order difference (Table 1)
	Sign          float64 // sign split (Table 3)
	Max           float64 // max of absolute values (Table 3)
	GetLength     float64 // effective-bit count (Table 3)
	ShufflePerBit float64 // one bit plane of Bit-shuffle (Table 3)
	Emit          float64 // assembling the output block message

	Header          float64 // parsing a block header + signs
	UnshufflePerBit float64 // one bit plane of reverse Bit-shuffle
	MergeSigns      float64 // reapplying signs
	PrefixSum       float64 // reverse Lorenzo (indivisible, paper §4.2)
	DeqMul          float64 // reverse quantization multiply (indivisible)
}

// DefaultCosts returns the CS-2-calibrated cost model.
//
// The reverse Bit-shuffle constant is set moderately below the forward
// one: the decompression direction writes whole bytes sequentially instead
// of scattering single bits, and the calibration reproduces the paper's
// observed decompression/compression throughput ratio (581.31/457.35 ≈
// 1.27, §5.2) at the system level together with the relay overhead.
func DefaultCosts() CostModel {
	return CostModel{
		Mul:           5078,
		Add:           1038,
		Lorenzo:       975,
		Sign:          1044,
		Max:           1037,
		GetLength:     1386,
		ShufflePerBit: 1976,
		Emit:          96,

		Header:          96,
		UnshufflePerBit: 1680,
		MergeSigns:      1044,
		PrefixSum:       975,
		DeqMul:          5078,
	}
}

// scale adjusts a 32-element cost to block length L.
func scale(c float64, L int) int64 {
	return int64(math.Round(c * float64(L) / 32))
}

// Config describes one (de)compression chain instance.
type Config struct {
	// BlockLen is the block size L (multiple of 8).
	BlockLen int
	// HeaderBytes is flenc.HeaderU32 or flenc.HeaderU8.
	HeaderBytes int
	// Eps is the resolved absolute error bound.
	Eps float64
	// EstWidth is the estimated fixed length used to decide how many
	// explicit per-bit Shuffle/Unshuffle sub-stages the chain exposes
	// (paper §4.2: 5% of the data is sampled to approximate it). Blocks
	// whose true width exceeds the estimate fold the surplus planes into
	// the final shuffle sub-stage. Must be ≥ 1.
	EstWidth int
	// Costs is the cycle-cost model; zero value selects DefaultCosts.
	Costs CostModel
}

func (c Config) withDefaults() Config {
	if c.BlockLen == 0 {
		c.BlockLen = 32
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = flenc.HeaderU32
	}
	if c.EstWidth <= 0 {
		c.EstWidth = 1
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BlockLen <= 0 || c.BlockLen%8 != 0 {
		return fmt.Errorf("stages: block length %d must be a positive multiple of 8", c.BlockLen)
	}
	if c.HeaderBytes != flenc.HeaderU32 && c.HeaderBytes != flenc.HeaderU8 {
		return fmt.Errorf("stages: unsupported header size %d", c.HeaderBytes)
	}
	if !(c.Eps > 0) {
		return fmt.Errorf("stages: non-positive ε %g", c.Eps)
	}
	if c.EstWidth < 1 || c.EstWidth > flenc.MaxWidth {
		return fmt.Errorf("stages: estimated width %d out of range [1,%d]", c.EstWidth, flenc.MaxWidth)
	}
	return nil
}

// BlockState is the unit of data flowing through a pipeline: one block of
// F elements in whatever representation the preceding sub-stages have
// produced. The simulated fabric transfers its Wavelets() between PEs; the
// kernels transform it in place.
type BlockState[F rawfloat.Float] struct {
	// Raw holds the input floats during compression (padded to L) and the
	// reconstructed floats at the end of decompression.
	Raw []F
	// Scaled holds e_i/(2ε) between Mul and Add.
	Scaled []float64
	// Codes holds quantization codes / Lorenzo residuals.
	Codes []int32
	// Abs, SignBits, MaxAbs, Width, Planes hold fixed-length-encoder state.
	Abs      []uint32
	SignBits []byte
	MaxAbs   uint32
	Width    uint
	Planes   []byte
	// Encoded holds the block's wire bytes (output of compression, input
	// of decompression).
	Encoded []byte
	// Verbatim marks a block stored raw.
	Verbatim bool

	phase phase
}

// phase tracks which representation is live, for Wavelets accounting.
type phase int

const (
	phaseRaw phase = iota
	phaseScaled
	phaseCodes
	phaseAbs
	phasePlanes
	phaseEncoded
)

// NewBlockState allocates the scratch for a block of length L.
func NewBlockState[F rawfloat.Float](L int) *BlockState[F] { return &NewBlockStates[F](L, 1)[0] }

// NewBlockStates allocates a batch of n block states of length L from one
// backing array per field — eight allocations for the batch instead of
// seven per state. Each state's slices are capped at its own share, so
// appending past it reallocates rather than overwriting the next state,
// and Encoded has room for the largest block either direction can hold.
// A state may serve block after block: ResetForCompress and
// ResetForDecompress clear everything a later sub-stage reads before
// writing it.
func NewBlockStates[F rawfloat.Float](L, n int) []BlockState[F] {
	pb := flenc.PlaneBytes(L)
	planes := flenc.MaxWidth * pb
	enc := max(flenc.EncodedSize(flenc.MaxWidth, L, flenc.HeaderU32), flenc.HeaderU32+rawfloat.Size[F]()*L)
	raw := make([]F, n*L)
	scaled := make([]float64, n*L)
	codes := make([]int32, n*L)
	abs := make([]uint32, n*L)
	signs := make([]byte, n*pb)
	planeBuf := make([]byte, n*planes)
	encBuf := make([]byte, n*enc)
	sts := make([]BlockState[F], n)
	for i := range sts {
		sts[i] = BlockState[F]{
			Raw:      raw[i*L : (i+1)*L : (i+1)*L],
			Scaled:   scaled[i*L : (i+1)*L : (i+1)*L],
			Codes:    codes[i*L : (i+1)*L : (i+1)*L],
			Abs:      abs[i*L : (i+1)*L : (i+1)*L],
			SignBits: signs[i*pb : (i+1)*pb : (i+1)*pb],
			Planes:   planeBuf[i*planes : (i+1)*planes : (i+1)*planes],
			Encoded:  encBuf[i*enc : i*enc : (i+1)*enc],
		}
	}
	return sts
}

// ResetForCompress loads a raw block (≤ L elements; zero-padded) into the
// state for a fresh compression pass.
func (st *BlockState[F]) ResetForCompress(block []F) {
	clear(st.Raw[copy(st.Raw, block):])
	st.Verbatim = false
	st.MaxAbs = 0
	st.Width = 0
	st.Encoded = st.Encoded[:0]
	st.phase = phaseRaw
}

// ResetForDecompress loads an encoded block into the state.
func (st *BlockState[F]) ResetForDecompress(encoded []byte) {
	st.Encoded = append(st.Encoded[:0], encoded...)
	st.Verbatim = false
	st.MaxAbs = 0
	st.Width = 0
	st.phase = phaseEncoded
}

// Wavelets returns the size of the state's live representation in 32-bit
// fabric words — the amount of data a PE must forward to its neighbor when
// handing the block off. The scaled representation counts as one word per
// element (the CS-2 pipeline keeps it in f32).
func (st *BlockState[F]) Wavelets() int {
	L := len(st.Raw)
	switch st.phase {
	case phaseRaw, phaseScaled, phaseCodes:
		return L
	case phaseAbs:
		// abs values + packed signs (rounded up to whole words)
		return L + (L/8+3)/4
	case phasePlanes:
		if st.Verbatim {
			return L
		}
		// planes so far + signs + width word
		return (len(st.Planes)+3)/4 + (L/8+3)/4 + 1
	case phaseEncoded:
		return (len(st.Encoded) + 3) / 4
	default:
		return L
	}
}

// Stage is one schedulable sub-stage.
type Stage[F rawfloat.Float] struct {
	// Name identifies the sub-stage (e.g. "Mul", "Shuffle[3]").
	Name string
	// Cycles returns the cost of running this sub-stage on st.
	Cycles func(st *BlockState[F]) int64
	// Run applies the sub-stage's computation to st.
	Run func(st *BlockState[F])
}

// Chain is an ordered list of sub-stages over blocks of F elements plus
// its configuration.
type Chain[F rawfloat.Float] struct {
	Dir    Direction
	Cfg    Config
	Stages []Stage[F]
}

// NewCompressChain builds the float32 compression chain for cfg.
func NewCompressChain(cfg Config) (*Chain[float32], error) { return NewCompress[float32](cfg) }

// NewDecompressChain builds the float32 decompression chain for cfg.
func NewDecompressChain(cfg Config) (*Chain[float32], error) { return NewDecompress[float32](cfg) }

// NewCompress builds the compression sub-stage chain for cfg over
// elements of type F.
func NewCompress[F rawfloat.Float](cfg Config) (*Chain[F], error) {
	c, q, err := newChain[F](Compress, cfg)
	if err != nil {
		return nil, err
	}
	cfg = c.Cfg
	L := cfg.BlockLen
	cm := cfg.Costs

	c.Stages = append(c.Stages,
		Stage[F]{
			Name:   "Mul",
			Cycles: constCost[F](scale(cm.Mul, L)),
			Run: func(st *BlockState[F]) {
				switch raw := any(st.Raw).(type) {
				case []float32:
					q.MulF32(st.Scaled, raw)
				case []float64:
					q.Mul(st.Scaled, raw)
				}
				st.phase = phaseScaled
			},
		},
		Stage[F]{
			Name:   "Add",
			Cycles: constCost[F](scale(cm.Add, L)),
			Run: func(st *BlockState[F]) {
				ok := quant.Round(st.Codes, st.Scaled)
				for i := 0; ok && i < len(st.Codes); i++ {
					ok = quant.Reconstructs(*q, st.Codes[i], st.Raw[i])
				}
				if !ok {
					st.Verbatim = true
					st.phase = phaseRaw
					return
				}
				st.phase = phaseCodes
			},
		},
		codedStage("Lorenzo", scale(cm.Lorenzo, L), func(st *BlockState[F]) {
			lorenzo.Forward(st.Codes, st.Codes)
		}),
		codedStage("Sign", scale(cm.Sign, L), func(st *BlockState[F]) {
			flenc.SplitSigns(st.Abs, st.SignBits, st.Codes)
			st.phase = phaseAbs
		}),
		codedStage("Max", scale(cm.Max, L), func(st *BlockState[F]) {
			st.MaxAbs = flenc.MaxAbs(st.Abs)
		}),
		codedStage("GetLength", scale(cm.GetLength, L), func(st *BlockState[F]) {
			st.Width = flenc.Width(st.MaxAbs)
			st.Planes = st.Planes[:0]
			st.phase = phasePlanes
		}),
	)

	pb := flenc.PlaneBytes(L)
	c.Stages = append(c.Stages, planeStages("Shuffle", cfg.EstWidth, scale(cm.ShufflePerBit, L), func(st *BlockState[F], p int) {
		st.Planes = append(st.Planes, make([]byte, pb)...)
		flenc.ShufflePlane(st.Planes[p*pb:(p+1)*pb], st.Abs, uint(p))
	})...)

	c.Stages = append(c.Stages, Stage[F]{
		Name:   "Emit",
		Cycles: constCost[F](scale(cm.Emit, L)),
		Run: func(st *BlockState[F]) {
			st.phase = phaseEncoded
			switch {
			case st.Verbatim:
				st.Encoded = flenc.AppendHeader(st.Encoded[:0], cfg.HeaderBytes, flenc.VerbatimU32)
				st.Encoded = rawfloat.Append(st.Encoded, st.Raw)
			case st.Width == 0:
				st.Encoded = flenc.AppendHeader(st.Encoded[:0], cfg.HeaderBytes, flenc.ZeroMarker)
			default:
				st.Encoded = flenc.AppendHeader(st.Encoded[:0], cfg.HeaderBytes, uint32(st.Width))
				st.Encoded = append(st.Encoded, st.SignBits...)
				st.Encoded = append(st.Encoded, st.Planes...)
			}
		},
	})

	return c, nil
}

// NewDecompress builds the decompression sub-stage chain for cfg over
// elements of type F.
func NewDecompress[F rawfloat.Float](cfg Config) (*Chain[F], error) {
	c, q, err := newChain[F](Decompress, cfg)
	if err != nil {
		return nil, err
	}
	cfg = c.Cfg
	L := cfg.BlockLen
	cm := cfg.Costs
	pb := flenc.PlaneBytes(L)

	c.Stages = append(c.Stages, Stage[F]{
		Name:   "Header",
		Cycles: constCost[F](scale(cm.Header, L)),
		Run: func(st *BlockState[F]) {
			v, n, err := flenc.Header(st.Encoded, cfg.HeaderBytes)
			if err != nil {
				panic(fmt.Sprintf("stages: %v", err)) // pipeline feeds whole blocks
			}
			switch {
			case v == flenc.VerbatimU32:
				st.Verbatim = true
				rawfloat.Decode(st.Raw, st.Encoded[n:])
				st.phase = phaseRaw
			case v == flenc.ZeroMarker:
				st.Width = 0
				clear(st.Abs)
				clear(st.SignBits)
				st.phase = phaseAbs
			default:
				st.Width = uint(v)
				copy(st.SignBits, st.Encoded[n:n+pb])
				st.Planes = st.Planes[:int(st.Width)*pb]
				copy(st.Planes, st.Encoded[n+pb:])
				clear(st.Abs)
				st.phase = phasePlanes
			}
		},
	})

	c.Stages = append(c.Stages, planeStages("Unshuffle", cfg.EstWidth, scale(cm.UnshufflePerBit, L), func(st *BlockState[F], p int) {
		flenc.UnshufflePlane(st.Abs, st.Planes[p*pb:(p+1)*pb], uint(p))
	})...)

	c.Stages = append(c.Stages,
		codedStage("MergeSigns", scale(cm.MergeSigns, L), func(st *BlockState[F]) {
			flenc.MergeSigns(st.Codes, st.Abs, st.SignBits)
			st.phase = phaseCodes
		}),
		codedStage("PrefixSum", scale(cm.PrefixSum, L), func(st *BlockState[F]) {
			lorenzo.Inverse(st.Codes, st.Codes)
		}),
		codedStage("DeqMul", scale(cm.DeqMul, L), func(st *BlockState[F]) {
			switch raw := any(st.Raw).(type) {
			case []float32:
				q.Dequantize(raw, st.Codes)
			case []float64:
				q.Dequantize64(raw, st.Codes)
			}
			st.phase = phaseRaw
		}),
	)

	return c, nil
}

// RunAll applies every sub-stage in order — the sequential reference
// execution of the chain. It returns the total modeled cycles.
func (c *Chain[F]) RunAll(st *BlockState[F]) int64 {
	var total int64
	for i := range c.Stages {
		total += c.Stages[i].Cycles(st)
		c.Stages[i].Run(st)
	}
	return total
}

// TotalCycles sums the cost of all sub-stages for a block in state st
// without running them. It is only meaningful on a fresh state (costs that
// depend on Width use the state's current Width, which for compression is
// unknown until GetLength runs — use EstimateCycles for planning).
func (c *Chain[F]) TotalCycles(st *BlockState[F]) int64 {
	var total int64
	for i := range c.Stages {
		total += c.Stages[i].Cycles(st)
	}
	return total
}

// StageNames returns the names of the chain's sub-stages in order.
func (c *Chain[F]) StageNames() []string {
	names := make([]string, len(c.Stages))
	for i := range c.Stages {
		names[i] = c.Stages[i].Name
	}
	return names
}

// EstimateCycles returns the planning-time cost of each sub-stage assuming
// every block has fixed length width (paper §4.2: the width is approximated
// by sampling 5% of the data). These estimates feed Alg. 1.
func (c *Chain[F]) EstimateCycles(width uint) []int64 {
	st := NewBlockState[F](c.Cfg.BlockLen)
	st.Width = width
	st.phase = phasePlanes
	out := make([]int64, len(c.Stages))
	for i := range c.Stages {
		out[i] = c.Stages[i].Cycles(st)
	}
	return out
}

// EstimateWidth samples every strideth block of data and returns the
// maximum observed fixed length (≥ 1), the paper's planning statistic.
func EstimateWidth(data []float32, eps float64, L, stride int) (uint, error) {
	if stride < 1 {
		stride = 1
	}
	chain, err := NewCompressChain(Config{BlockLen: L, Eps: eps})
	if err != nil {
		return 0, err
	}
	st := NewBlockState[float32](L)
	var w uint = 1
	for lo := 0; lo < len(data); lo += stride * L {
		st.ResetForCompress(data[lo:min(lo+L, len(data))])
		chain.RunAll(st)
		if !st.Verbatim && st.Width > w {
			w = st.Width
		}
	}
	return w, nil
}

// newChain validates cfg and returns an empty chain and its quantizer.
func newChain[F rawfloat.Float](dir Direction, cfg Config) (*Chain[F], *quant.Quantizer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	q, err := quant.NewQuantizer(cfg.Eps)
	if err != nil {
		return nil, nil, err
	}
	return &Chain[F]{Dir: dir, Cfg: cfg}, q, nil
}

// planeStages returns the per-bit sub-stages name[0] … name[estWidth−1]:
// stage k runs plane k of a block, and the last one also every plane
// above it, so a block wider than the estimate folds its surplus planes
// into the final sub-stage. A plane costs perBit cycles.
func planeStages[F rawfloat.Float](name string, estWidth int, perBit int64, plane func(st *BlockState[F], p int)) []Stage[F] {
	planes := func(st *BlockState[F], k int) (lo, hi int) {
		if st.Verbatim || uint(k) >= st.Width {
			return 0, 0
		}
		if k == estWidth-1 {
			return k, int(st.Width)
		}
		return k, k + 1
	}
	sts := make([]Stage[F], estWidth)
	for k := range sts {
		sts[k] = Stage[F]{
			Name: fmt.Sprintf("%s[%d]", name, k),
			Cycles: func(st *BlockState[F]) int64 {
				lo, hi := planes(st, k)
				return int64(hi-lo) * perBit
			},
			Run: func(st *BlockState[F]) {
				lo, hi := planes(st, k)
				for p := lo; p < hi; p++ {
					plane(st, p)
				}
			},
		}
	}
	return sts
}

func constCost[F rawfloat.Float](c int64) func(*BlockState[F]) int64 {
	return func(*BlockState[F]) int64 { return c }
}

// codedStage is a sub-stage of coded blocks only: a verbatim block passes
// it untouched and for free.
func codedStage[F rawfloat.Float](name string, cycles int64, run func(st *BlockState[F])) Stage[F] {
	return Stage[F]{
		Name: name,
		Cycles: func(st *BlockState[F]) int64 {
			if st.Verbatim {
				return 0
			}
			return cycles
		},
		Run: func(st *BlockState[F]) {
			if !st.Verbatim {
				run(st)
			}
		},
	}
}
