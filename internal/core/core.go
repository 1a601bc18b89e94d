// Package core implements the CereSZ error-bounded lossy compressor
// (paper §3): block-wise pre-quantization → 1D Lorenzo prediction →
// fixed-length encoding, plus the reverse decompression path. This is the
// host (reference) implementation; the same stage kernels are also executed
// by the simulated Cerebras WSE pipeline (internal/wse, internal/mapping),
// whose output is bit-identical to this package's.
//
// The host hot path runs the three stages as one fused pass per block
// (fusedForward: quantize, strictness check, Lorenzo delta, sign split and
// width in a single loop, then a word-parallel bit shuffle straight into
// the output), with pooled per-worker scratch so steady-state compression
// and decompression perform zero allocations. A block whose magnitudes all
// lie within the pass's zero threshold is emitted as a bare header without
// running the kernel (fastpath.go). On amd64 CPUs with AVX2 the prescan,
// the fused pass with its plane emission and the fused decode run as
// assembly kernels (kernels_amd64.s, chosen once from CPUID); the Go
// kernels are the path everywhere else and the oracle the assembly is
// tested against, and the bytes are the same. The unfused stage-by-stage
// pipeline is retained (encodeRef) both as the differential-testing
// reference and as the body run for telemetry-sampled blocks, because the
// per-stage timing split it produces models the WSE sub-stage pipeline.
//
// The compressed stream is self-describing:
//
//	offset size  field
//	0      4     magic "CSZ1"
//	4      1     header bytes per block (4 = CereSZ, 1 = SZp family)
//	5      1     flags (bit 0: element type, 0 = float32)
//	6      2     block length L (uint16, multiple of 8)
//	8      8     element count N (uint64)
//	16     8     resolved absolute error bound ε (float64 bits)
//	24     …     ⌈N/L⌉ blocks (flenc wire format; the trailing partial
//	             block is zero-padded to L elements before quantization)
//
// Every block is independent (paper §3: "compressed within each block
// independently"), which is what allows the naive mapping of blocks to PE
// rows on the WSE.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"ceresz/internal/flenc"
	"ceresz/internal/hostpool"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
	"ceresz/internal/telemetry"
)

// Telemetry instruments for the host path (telemetry.Default, disabled
// unless a CLI opts in). Per-block cost when disabled is one predictable
// branch; per-stage timings are sampled (one block in stageSampleEvery)
// so the enabled path stays well under the 5% overhead budget.
var (
	telCompress           = telemetry.T("core.compress")
	telDecompress         = telemetry.T("core.decompress")
	telCompressBlocks     = telemetry.C("core.compress.blocks")
	telCompressBytesIn    = telemetry.C("core.compress.bytes_in")
	telCompressBytesOut   = telemetry.C("core.compress.bytes_out")
	telCompressZero       = telemetry.C("core.compress.zero_blocks")
	telCompressVerbatim   = telemetry.C("core.compress.verbatim_blocks")
	telDecompressBlocks   = telemetry.C("core.decompress.blocks")
	telDecompressBytesIn  = telemetry.C("core.decompress.bytes_in")
	telDecompressBytesOut = telemetry.C("core.decompress.bytes_out")
	telWorkers            = telemetry.G("core.workers.active")
	telStageQuantNs       = telemetry.C("core.stage.quantize_ns")
	telStageLorenzoNs     = telemetry.C("core.stage.lorenzo_ns")
	telStageEncodeNs      = telemetry.C("core.stage.encode_ns")
	telStageSampled       = telemetry.C("core.stage.sampled_blocks")
)

// stageSampleEvery is the per-stage timing sample period (a power of two):
// one block in 1024 runs the stage-by-stage reference pipeline under four
// clock reads, every other block runs the fused kernel behind one branch.
const stageSampleEvery = 1024

// Magic identifies a CereSZ stream.
var Magic = [4]byte{'C', 'S', 'Z', '1'}

// StreamHeaderSize is the size of the fixed container header in bytes.
const StreamHeaderSize = 24

// DefaultBlockLen is the block size used throughout the paper (§5.1.1):
// 32 elements, the option with the highest compression ratio that satisfies
// the WSE's 16/32-bit transfer granularity.
const DefaultBlockLen = 32

// Options configures a compression pass.
type Options struct {
	// Bound is the user error bound (ABS ε or value-range REL λ).
	Bound quant.Bound
	// BlockLen is the number of elements per block; it must be a positive
	// multiple of 8. Zero selects DefaultBlockLen.
	BlockLen int
	// HeaderBytes is the per-block fixed-length header size:
	// flenc.HeaderU32 (CereSZ) or flenc.HeaderU8 (SZp family).
	// Zero selects flenc.HeaderU32.
	HeaderBytes int
	// Workers bounds host-side parallelism. 0 and 1 select the sequential
	// path (which is also the zero-allocation path); values > 1 shard the
	// block range over the shared host worker pool (internal/hostpool)
	// with pooled per-shard buffers; negative uses GOMAXPROCS. With
	// GOMAXPROCS == 1 every value selects the sequential path. Output
	// bytes are identical regardless.
	Workers int
}

// resolveWorkers maps a Workers knob to a shard count. On a single
// processor shards can only queue behind one another and then pay the
// stitch copy, so any request for more runs sequentially there.
func resolveWorkers(w int) int {
	if w == 0 || w == 1 {
		return 1
	}
	procs := runtime.GOMAXPROCS(0)
	if w < 0 || procs == 1 {
		return procs
	}
	return w
}

func (o Options) withDefaults() Options {
	if o.BlockLen == 0 {
		o.BlockLen = DefaultBlockLen
	}
	if o.HeaderBytes == 0 {
		o.HeaderBytes = flenc.HeaderU32
	}
	o.Workers = resolveWorkers(o.Workers)
	return o
}

func (o Options) validate() error {
	if o.BlockLen <= 0 || o.BlockLen%8 != 0 {
		return fmt.Errorf("core: block length %d must be a positive multiple of 8", o.BlockLen)
	}
	if o.BlockLen > math.MaxUint16 {
		return fmt.Errorf("core: block length %d exceeds container limit %d", o.BlockLen, math.MaxUint16)
	}
	if o.HeaderBytes != flenc.HeaderU32 && o.HeaderBytes != flenc.HeaderU8 {
		return fmt.Errorf("core: unsupported header size %d", o.HeaderBytes)
	}
	return nil
}

// Stats reports what a compression pass produced.
type Stats struct {
	// Elements is the number of input elements N.
	Elements int
	// Blocks is ⌈N/L⌉.
	Blocks int
	// ZeroBlocks counts blocks stored as a bare header.
	ZeroBlocks int
	// VerbatimBlocks counts blocks stored raw due to quantization overflow.
	VerbatimBlocks int
	// WidthHistogram[w] counts blocks whose fixed length is w (0..32).
	WidthHistogram [flenc.MaxWidth + 1]int
	// CompressedBytes is the total stream size including the container header.
	CompressedBytes int
	// Eps is the resolved absolute error bound.
	Eps float64
}

// Ratio returns original size / compressed size for float32 input.
func (s *Stats) Ratio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(4*s.Elements) / float64(s.CompressedBytes)
}

// MeanWidth returns the average fixed length over non-zero, non-verbatim
// blocks, or 0 if there are none.
func (s *Stats) MeanWidth() float64 {
	var n, sum int
	for w := 1; w <= flenc.MaxWidth; w++ {
		n += s.WidthHistogram[w]
		sum += w * s.WidthHistogram[w]
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Meta describes a parsed stream header.
type Meta struct {
	HeaderBytes int
	BlockLen    int
	Elements    int
	Eps         float64
	// Elem is the stream's element type (Float32 or Float64).
	Elem Elem
}

// Blocks returns the number of blocks in the stream.
func (m Meta) Blocks() int {
	return (m.Elements + m.BlockLen - 1) / m.BlockLen
}

// MinStreamBytes returns the smallest stream that could carry the header's
// element count: every block costs at least its per-block header (an
// all-zero stream is exactly that). Decode paths check it before sizing
// the offsets table or the output, so a hostile element count in an
// otherwise tiny input fails fast instead of driving huge allocations.
func (m Meta) MinStreamBytes() int {
	return StreamHeaderSize + m.Blocks()*m.HeaderBytes
}

// checkPlausible rejects a stream whose header promises more blocks than
// its byte length could possibly hold.
func checkPlausible(m Meta, streamLen int) error {
	if streamLen < m.MinStreamBytes() {
		return fmt.Errorf("%w: header declares %d elements (%d blocks, ≥%d bytes), stream has %d bytes",
			ErrBadStream, m.Elements, m.Blocks(), m.MinStreamBytes(), streamLen)
	}
	return nil
}

// ErrBadStream is wrapped by all stream-parsing failures.
var ErrBadStream = errors.New("core: malformed stream")

// Compress appends the CereSZ stream for data to dst (which may be nil) and
// returns the extended slice together with compression statistics.
func Compress(dst []byte, data []float32, opts Options) ([]byte, *Stats, error) {
	stats := new(Stats)
	dst, err := CompressInto(dst, data, opts, stats)
	if err != nil {
		return dst, nil, err
	}
	return dst, stats, nil
}

// CompressInto is Compress writing its statistics into a caller-provided
// Stats (overwritten, not accumulated). With Workers ≤ 1 and a dst of
// sufficient capacity it performs zero allocations in steady state.
func CompressInto(dst []byte, data []float32, opts Options, stats *Stats) ([]byte, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return dst, err
	}
	minV, maxV := quant.Range(data)
	eps, err := opts.Bound.Resolve(minV, maxV)
	if err != nil {
		return dst, err
	}
	return compressEps(dst, data, eps, opts, stats)
}

// CompressWithEps is Compress with a pre-resolved absolute bound; the
// baselines use it to guarantee all compressors see the same ε.
func CompressWithEps(dst []byte, data []float32, eps float64, opts Options) ([]byte, *Stats, error) {
	stats := new(Stats)
	dst, err := CompressWithEpsInto(dst, data, eps, opts, stats)
	if err != nil {
		return dst, nil, err
	}
	return dst, stats, nil
}

// CompressWithEpsInto is CompressWithEps writing into a caller-provided
// Stats, allocation-free in steady state like CompressInto.
func CompressWithEpsInto(dst []byte, data []float32, eps float64, opts Options, stats *Stats) ([]byte, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return dst, err
	}
	if !(eps > 0) {
		return dst, quant.ErrNonPositiveBound
	}
	return compressEps(dst, data, eps, opts, stats)
}

func compressEps(dst []byte, data []float32, eps float64, opts Options, stats *Stats) ([]byte, error) {
	defer telCompress.Start().End()
	q, err := quant.MakeQuantizer(eps)
	if err != nil {
		return dst, err
	}
	L := opts.BlockLen
	nBlocks := (len(data) + L - 1) / L

	*stats = Stats{Elements: len(data), Blocks: nBlocks, Eps: eps}

	// Container header.
	start := len(dst)
	dst = AppendStreamHeader(dst, Meta{
		HeaderBytes: opts.HeaderBytes,
		BlockLen:    L,
		Elements:    len(data),
		Eps:         eps,
	})

	if nBlocks == 0 {
		stats.CompressedBytes = len(dst) - start
		return dst, nil
	}

	workers := opts.Workers
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		enc := getEncoder(L, opts.HeaderBytes, q)
		for b := 0; b < nBlocks; b++ {
			dst = enc.encode(dst, blockSlice(data, b, L), stats)
		}
		putEncoder(enc)
		stats.CompressedBytes = len(dst) - start
		recordCompressTelemetry(stats)
		return dst, nil
	}

	// Parallel path: shard the block range over the shared host pool
	// (internal/hostpool), encode each shard into a pooled buffer, then
	// stitch the shards back in order. The output is byte-identical to the
	// sequential path at any worker count.
	sp := getShards(workers)
	shards := *sp
	hostpool.Run(workers, nBlocks, func(k, lo, hi int) {
		telWorkers.Add(1)
		defer telWorkers.Add(-1)
		enc := getEncoder(L, opts.HeaderBytes, q)
		sb := &shards[k]
		sb.stats = Stats{}
		// Worst case: every block verbatim.
		sb.buf = slices.Grow(sb.buf[:0], (hi-lo)*flenc.VerbatimSize(L, opts.HeaderBytes))
		for b := lo; b < hi; b++ {
			sb.buf = enc.encode(sb.buf, blockSlice(data, b, L), &sb.stats)
		}
		putEncoder(enc)
	})
	for i := range shards {
		dst = append(dst, shards[i].buf...)
		stats.ZeroBlocks += shards[i].stats.ZeroBlocks
		stats.VerbatimBlocks += shards[i].stats.VerbatimBlocks
		for w := range stats.WidthHistogram {
			stats.WidthHistogram[w] += shards[i].stats.WidthHistogram[w]
		}
	}
	putShards(sp)
	stats.CompressedBytes = len(dst) - start
	recordCompressTelemetry(stats)
	return dst, nil
}

// recordCompressTelemetry publishes a finished pass's aggregates. One call
// per pass, so its cost is independent of the data size.
func recordCompressTelemetry(stats *Stats) {
	if !telemetry.Enabled() {
		return
	}
	telCompressBlocks.Add(int64(stats.Blocks))
	telCompressBytesIn.Add(int64(4 * stats.Elements))
	telCompressBytesOut.Add(int64(stats.CompressedBytes))
	telCompressZero.Add(int64(stats.ZeroBlocks))
	telCompressVerbatim.Add(int64(stats.VerbatimBlocks))
}

// shardBuf is one shard's output in a parallel pass: a recycled byte
// buffer (compress), per-shard stats to merge, and a per-shard error
// (decompress). Recycling the buffers through shardSetPool is what lets
// Workers > 1 amortize its per-call allocations across calls.
type shardBuf struct {
	buf   []byte
	stats Stats
	err   error
}

// shardSetPool recycles the per-call shard tables (and their buffers)
// between parallel Compress/Decompress passes.
var shardSetPool sync.Pool

func getShards(n int) *[]shardBuf {
	p, _ := shardSetPool.Get().(*[]shardBuf)
	if p == nil {
		s := make([]shardBuf, n)
		return &s
	}
	if cap(*p) < n {
		*p = make([]shardBuf, n)
	}
	*p = (*p)[:n]
	return p
}

func putShards(p *[]shardBuf) { shardSetPool.Put(p) }

// blockSlice returns block b of data (length ≤ L; the caller pads).
func blockSlice(data []float32, b, L int) []float32 {
	lo := b * L
	hi := lo + L
	if hi > len(data) {
		hi = len(data)
	}
	return data[lo:hi]
}

// blockEncoder holds the per-worker scratch state for encoding blocks,
// plus local (unsynchronized) telemetry accumulators flushed once per
// worker. Encoders are recycled through encoderPool; getEncoder resets the
// per-pass state and rebuilds the buffers only when L changes.
type blockEncoder struct {
	L       int
	hdr     int
	q       quant.Quantizer
	zeroT   float32 // zeroThreshold of q: blocks within it skip the kernel
	padded  []float32
	scaled  []float64
	codes   []int32
	scratch *flenc.Block

	sample                       bool // telemetry enabled when created
	n                            int  // blocks encoded so far
	quantNs, lorenzoNs, encodeNs int64
	sampled                      int64
}

func newBlockEncoder(L, headerBytes int, q quant.Quantizer) *blockEncoder {
	return &blockEncoder{
		L:       L,
		hdr:     headerBytes,
		q:       q,
		zeroT:   zeroThreshold(&q, math.Nextafter32),
		padded:  make([]float32, L),
		scaled:  make([]float64, L),
		codes:   make([]int32, L),
		scratch: flenc.NewBlock(L),
		sample:  telemetry.Enabled(),
	}
}

var encoderPool sync.Pool

func getEncoder(L, headerBytes int, q quant.Quantizer) *blockEncoder {
	e, _ := encoderPool.Get().(*blockEncoder)
	if e == nil || e.L != L {
		return newBlockEncoder(L, headerBytes, q)
	}
	e.hdr = headerBytes
	e.q = q
	e.zeroT = zeroThreshold(&q, math.Nextafter32)
	e.sample = telemetry.Enabled()
	e.n = 0
	e.quantNs, e.lorenzoNs, e.encodeNs, e.sampled = 0, 0, 0, 0
	return e
}

// putEncoder flushes the encoder's sampled stage timings — one batch of
// atomic adds per worker, not per block — and recycles it.
func putEncoder(e *blockEncoder) {
	if e.sampled != 0 {
		telStageQuantNs.Add(e.quantNs)
		telStageLorenzoNs.Add(e.lorenzoNs)
		telStageEncodeNs.Add(e.encodeNs)
		telStageSampled.Add(e.sampled)
	}
	encoderPool.Put(e)
}

// encode appends one encoded block to dst, updating stats.
func (e *blockEncoder) encode(dst []byte, block []float32, stats *Stats) []byte {
	src := block
	if len(block) < e.L {
		copy(e.padded, block)
		clear(e.padded[len(block):])
		src = e.padded
	}
	// Sampled per-stage timing: one block in stageSampleEvery runs the
	// stage-by-stage reference pipeline (byte-identical output) under four
	// clock reads; the rest run the fused kernel behind one branch.
	if e.sample && e.n&(stageSampleEvery-1) == 0 {
		e.n++
		return e.encodeRef(dst, src, stats)
	}
	e.n++
	if useAVX2 {
		return e.encodeVector(dst, src, stats)
	}
	// Zero-block prescan: a block inside the zero threshold has width 0
	// whatever the kernel would compute, so the kernel is skipped.
	var w uint
	if !allWithin(src, e.zeroT) {
		var ok bool
		if w, ok = e.fusedForward(src); !ok {
			stats.VerbatimBlocks++
			return appendVerbatim(dst, src, e.hdr)
		}
	}
	stats.WidthHistogram[w]++
	if w == 0 {
		stats.ZeroBlocks++
	}
	return flenc.AppendEncoded(dst, e.scratch.Abs[:e.L], e.scratch.Signs[:e.L/8], w, e.hdr)
}

// fusedForward runs stages ①+② and the Sign/Max/GetLength sub-stages of ③
// in a single pass over one padded block: quantize (multiply + floor),
// strictness check, Lorenzo delta, branchless sign split into
// scratch.Abs/Signs, and width via OR-accumulation
// (bits.Len32(a|b) == max(bits.Len32(a), bits.Len32(b))).
//
// ok == false means the block must be stored verbatim. The decision is
// identical to the unfused pipeline's: that one stores verbatim iff any
// element fails the int32-range check or the strictness check, so exiting
// at the first failure — before the later checks run — selects the same
// blocks, and verbatim payloads are the raw floats regardless.
func (e *blockEncoder) fusedForward(src []float32) (w uint, ok bool) {
	abs := e.scratch.Abs[:e.L]
	signs := e.scratch.Signs[:e.L/8]
	recip, twoE, eps := e.q.Recip(), e.q.TwoEps(), e.q.Eps()
	var acc uint32
	var prev int32
	for j := range signs {
		v := src[8*j : 8*j+8 : 8*j+8]
		a := abs[8*j : 8*j+8 : 8*j+8]
		var sb uint32
		for i, x := range v {
			// ① quantize: p = floor(x/(2ε) + 0.5). The negated range
			// check also fails NaN (all comparisons false), matching
			// quant.Round's explicit IsNaN test. The conversion around the
			// product rounds it before the add on every host (quant.Quantize).
			f := math.Floor(float64(float64(x)*recip) + 0.5)
			if !(f >= math.MinInt32 && f <= math.MaxInt32) {
				return 0, false
			}
			p := int32(f)
			// Strictness: the float32 rounding of p·2ε can exceed ε when
			// ε < ulp(x)/2; such blocks go verbatim (see encodeRef).
			rec := float32(float64(p) * twoE)
			if !(math.Abs(float64(rec)-float64(x)) <= eps) {
				return 0, false
			}
			// ② Lorenzo delta, ③ sign split (branchless |d|).
			d := p - prev
			prev = p
			neg := uint32(d) >> 31
			u := (uint32(d) ^ -neg) + neg
			sb |= neg << i
			a[i] = u
			acc |= u
		}
		signs[j] = byte(sb)
	}
	return flenc.Width(acc), true
}

// encodeRef is the retained stage-by-stage pipeline: Mul, Round, the
// strictness sweep, lorenzo.Forward and flenc.EncodeBlockRef as separate
// loops, exactly the sub-stage decomposition the WSE mapping schedules.
// Its output is byte-identical to the fused path (differential fuzz
// asserts this), which is why telemetry-sampled blocks can run it without
// perturbing the stream: the per-stage timing split it records keeps
// modeling the pipeline stages that the fused kernel collapses.
func (e *blockEncoder) encodeRef(dst []byte, src []float32, stats *Stats) []byte {
	t0 := time.Now()
	// Stage ①: pre-quantization (Mul then Round, paper Table 2).
	e.q.MulF32(e.scaled, src)
	if !quant.Round(e.codes, e.scaled) {
		// Quantization overflow (or NaN/Inf): store the block verbatim.
		stats.VerbatimBlocks++
		return appendVerbatim(dst, src, e.hdr)
	}
	// Strictness check: p·2ε is within ε of the input in float64, but the
	// final float32 rounding of the reconstruction can add up to half a ulp
	// of the value. When ε is below that (ε < ulp(v)/2 — e.g. very tight
	// ABS bounds on large magnitudes) no quantized representation can honor
	// the bound, so store the block verbatim. This is the fixed-length
	// analogue of SZ's "unpredictable data" path; on the paper's REL
	// 1e-2…1e-4 regimes it never triggers.
	for i, p := range e.codes {
		rec := float32(float64(p) * e.q.TwoEps())
		if !(math.Abs(float64(rec)-float64(src[i])) <= e.q.Eps()) {
			stats.VerbatimBlocks++
			return appendVerbatim(dst, src, e.hdr)
		}
	}
	t1 := time.Now()
	// Stage ②: 1D Lorenzo prediction (first-order difference).
	lorenzo.Forward(e.codes, e.codes)
	t2 := time.Now()
	// Stage ③: fixed-length encoding.
	var w uint
	dst, w = flenc.EncodeBlockRef(dst, e.codes, e.hdr, e.scratch)
	t3 := time.Now()
	stats.WidthHistogram[w]++
	if w == 0 {
		stats.ZeroBlocks++
	}
	e.quantNs += t1.Sub(t0).Nanoseconds()
	e.lorenzoNs += t2.Sub(t1).Nanoseconds()
	e.encodeNs += t3.Sub(t2).Nanoseconds()
	e.sampled++
	return dst
}

// quantizeStrict32 quantizes one block into codes and verifies every
// reconstruction honors ε, reporting false (verbatim) on the first
// failure. It serves the tiled (2D-Lorenzo) variant, whose prediction
// cannot fuse into the scan order.
func quantizeStrict32(q *quant.Quantizer, codes []int32, src []float32) bool {
	for i, x := range src {
		p, ok := quantizeStrict(q, x)
		if !ok {
			return false
		}
		codes[i] = p
	}
	return true
}

func appendVerbatim(dst []byte, block []float32, headerBytes int) []byte {
	switch headerBytes {
	case flenc.HeaderU32:
		var h [4]byte
		binary.LittleEndian.PutUint32(h[:], flenc.VerbatimU32)
		dst = append(dst, h[:]...)
	case flenc.HeaderU8:
		dst = append(dst, flenc.VerbatimU8)
	default:
		panic(fmt.Sprintf("core: unsupported header size %d", headerBytes))
	}
	return rawfloat.Append(dst, block)
}

// AppendStreamHeader appends the 24-byte container header described by m.
// It is shared by the host compressor and the simulated WSE pipeline so
// both emit identical streams.
func AppendStreamHeader(dst []byte, m Meta) []byte {
	var hdr [StreamHeaderSize]byte
	copy(hdr[0:4], Magic[:])
	hdr[4] = byte(m.HeaderBytes)
	hdr[5] = byte(m.Elem)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(m.BlockLen))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(m.Elements))
	binary.LittleEndian.PutUint64(hdr[16:24], math.Float64bits(m.Eps))
	return append(dst, hdr[:]...)
}

// scanOffsets walks the stream body filling offsets (length blocks+1) with
// the byte offset of every block plus a final end offset. elemSize is the
// verbatim payload element width (4 for float32, 8 for float64).
func scanOffsets(body []byte, m Meta, offsets []int, elemSize int) error {
	nBlocks := m.Blocks()
	pos := 0
	for b := 0; b < nBlocks; b++ {
		offsets[b] = pos
		v, n, err := flenc.Header(body[pos:], m.HeaderBytes)
		if err != nil {
			return fmt.Errorf("%w: block %d: %v", ErrBadStream, b, err)
		}
		switch {
		case v == flenc.ZeroMarker:
			pos += n
		case v == flenc.VerbatimU32:
			pos += m.HeaderBytes + elemSize*m.BlockLen
		case v <= flenc.MaxWidth:
			pos += flenc.EncodedSize(uint(v), m.BlockLen, m.HeaderBytes)
		default:
			return fmt.Errorf("%w: block %d: invalid fixed length %d", ErrBadStream, b, v)
		}
		if pos > len(body) {
			return fmt.Errorf("%w: block %d overruns stream", ErrBadStream, b)
		}
	}
	offsets[nBlocks] = pos
	return nil
}

// offsetsPool recycles block-offset tables between Decompress calls.
var offsetsPool sync.Pool

func getOffsets(n int) *[]int {
	p, _ := offsetsPool.Get().(*[]int)
	if p == nil {
		s := make([]int, n)
		return &s
	}
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return p
}

// BlockOffsets parses the container header and scans the stream body,
// returning the parsed metadata and the byte offsets (relative to the body
// start, StreamHeaderSize) of every block plus a final end offset —
// offsets[b]..offsets[b+1] delimits block b. Float32 streams only; the
// float64 path has its own scan (wider verbatim payloads).
func BlockOffsets(comp []byte) (Meta, []int, error) {
	m, err := ParseHeader(comp)
	if err != nil {
		return m, nil, err
	}
	if m.Elem != Float32 {
		return m, nil, fmt.Errorf("%w: stream holds %s elements, expected float32", ErrBadStream, m.Elem)
	}
	if err := checkPlausible(m, len(comp)); err != nil {
		return m, nil, err
	}
	offsets := make([]int, m.Blocks()+1)
	if err := scanOffsets(comp[StreamHeaderSize:], m, offsets, 4); err != nil {
		return m, nil, err
	}
	return m, offsets, nil
}

// ParseHeader decodes and validates the container header.
func ParseHeader(comp []byte) (Meta, error) {
	var m Meta
	if len(comp) < StreamHeaderSize {
		return m, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrBadStream, len(comp), StreamHeaderSize)
	}
	if comp[0] != Magic[0] || comp[1] != Magic[1] || comp[2] != Magic[2] || comp[3] != Magic[3] {
		return m, fmt.Errorf("%w: bad magic %q", ErrBadStream, comp[0:4])
	}
	m.HeaderBytes = int(comp[4])
	if m.HeaderBytes != flenc.HeaderU32 && m.HeaderBytes != flenc.HeaderU8 {
		return m, fmt.Errorf("%w: unsupported block header size %d", ErrBadStream, m.HeaderBytes)
	}
	switch comp[5] {
	case elemF32:
		m.Elem = Float32
	case elemF64:
		m.Elem = Float64
	default:
		return m, fmt.Errorf("%w: unsupported element type flag %d", ErrBadStream, comp[5])
	}
	m.BlockLen = int(binary.LittleEndian.Uint16(comp[6:8]))
	if m.BlockLen == 0 || m.BlockLen%8 != 0 {
		return m, fmt.Errorf("%w: invalid block length %d", ErrBadStream, m.BlockLen)
	}
	n := binary.LittleEndian.Uint64(comp[8:16])
	if n > math.MaxInt32*64 {
		return m, fmt.Errorf("%w: implausible element count %d", ErrBadStream, n)
	}
	m.Elements = int(n)
	m.Eps = math.Float64frombits(binary.LittleEndian.Uint64(comp[16:24]))
	if !(m.Eps > 0) {
		return m, fmt.Errorf("%w: non-positive error bound %g", ErrBadStream, m.Eps)
	}
	return m, nil
}

// Decompress reconstructs the float32 data from a CereSZ stream, appending
// to dst (which may be nil). workers bounds host parallelism with the same
// semantics as Options.Workers: 0/1 sequential, > 1 sharded over the host
// pool, negative = GOMAXPROCS. With workers 0/1 and a dst of sufficient
// capacity it performs zero allocations in steady state.
func Decompress(dst []float32, comp []byte, workers int) ([]float32, Meta, error) {
	defer telDecompress.Start().End()
	m, err := ParseHeader(comp)
	if err != nil {
		return dst, m, err
	}
	if m.Elem != Float32 {
		return dst, m, fmt.Errorf("%w: stream holds %s elements, expected float32", ErrBadStream, m.Elem)
	}
	if err := checkPlausible(m, len(comp)); err != nil {
		return dst, m, err
	}
	body := comp[StreamHeaderSize:]
	nBlocks := m.Blocks()
	L := m.BlockLen

	// Pass 1: locate block boundaries. Headers are self-describing, so this
	// is a cheap sequential scan (the paper's "pre-known fixed-length"
	// decompression advantage, §3).
	op := getOffsets(nBlocks + 1)
	defer offsetsPool.Put(op)
	offsets := *op
	if err := scanOffsets(body, m, offsets, 4); err != nil {
		return dst, m, err
	}

	q, err := quant.MakeQuantizer(m.Eps)
	if err != nil {
		return dst, m, err
	}

	start := len(dst)
	dst = slices.Grow(dst, m.Elements)[:start+m.Elements]
	out := dst[start:]

	workers = resolveWorkers(workers)
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		dec := getDecoder(L, m.HeaderBytes, q)
		for b := 0; b < nBlocks; b++ {
			if err := dec.decode(outBlock(out, b, L), body[offsets[b]:offsets[b+1]]); err != nil {
				putDecoder(dec)
				return dst, m, fmt.Errorf("%w: block %d: %v", ErrBadStream, b, err)
			}
		}
		putDecoder(dec)
		recordDecompressTelemetry(m, len(comp))
		return dst, m, nil
	}

	// Parallel path: shards write disjoint regions of out, so no stitch is
	// needed — only the first shard error is reported.
	sp := getShards(workers)
	shards := *sp
	hostpool.Run(workers, nBlocks, func(k, lo, hi int) {
		telWorkers.Add(1)
		defer telWorkers.Add(-1)
		shards[k].err = nil
		dec := getDecoder(L, m.HeaderBytes, q)
		defer putDecoder(dec)
		for b := lo; b < hi; b++ {
			if err := dec.decode(outBlock(out, b, L), body[offsets[b]:offsets[b+1]]); err != nil {
				shards[k].err = fmt.Errorf("%w: block %d: %v", ErrBadStream, b, err)
				return
			}
		}
	})
	var derr error
	for i := range shards {
		if shards[i].err != nil {
			derr = shards[i].err
			break
		}
	}
	putShards(sp)
	if derr != nil {
		return dst, m, derr
	}
	recordDecompressTelemetry(m, len(comp))
	return dst, m, nil
}

// recordDecompressTelemetry publishes a finished pass's aggregates.
func recordDecompressTelemetry(m Meta, compBytes int) {
	if !telemetry.Enabled() {
		return
	}
	telDecompressBlocks.Add(int64(m.Blocks()))
	telDecompressBytesIn.Add(int64(compBytes))
	telDecompressBytesOut.Add(int64(4 * m.Elements))
}

func outBlock(out []float32, b, L int) []float32 {
	lo := b * L
	hi := lo + L
	if hi > len(out) {
		hi = len(out)
	}
	return out[lo:hi]
}

func outBlock64(out []float64, b, L int) []float64 {
	lo := b * L
	hi := lo + L
	if hi > len(out) {
		hi = len(out)
	}
	return out[lo:hi]
}

// blockDecoder holds per-worker decode scratch, recycled via decoderPool.
type blockDecoder struct {
	L       int
	hdr     int
	q       quant.Quantizer
	full    []float32
	scratch *flenc.Block
}

var decoderPool sync.Pool

func getDecoder(L, headerBytes int, q quant.Quantizer) *blockDecoder {
	d, _ := decoderPool.Get().(*blockDecoder)
	if d == nil || d.L != L {
		d = &blockDecoder{
			L:       L,
			full:    make([]float32, L),
			scratch: flenc.NewBlock(L),
		}
	}
	d.hdr = headerBytes
	d.q = q
	return d
}

func putDecoder(d *blockDecoder) { decoderPool.Put(d) }

// decode reconstructs one block (len(out) ≤ L for the trailing block),
// fusing the reverse stages: after the word-parallel unshuffle, one loop
// merges signs, runs the Lorenzo prefix sum and dequantizes — the same
// int32 wraparound arithmetic and float64→float32 rounding as the unfused
// MergeSigns → lorenzo.Inverse → Dequantize sequence, so output bits are
// identical (DecodeBlockRef-based differential fuzz asserts it).
func (d *blockDecoder) decode(out []float32, src []byte) error {
	v, n, err := flenc.Header(src, d.hdr)
	if err != nil {
		return err
	}
	if v == flenc.VerbatimU32 {
		if len(src) < n+4*d.L {
			return fmt.Errorf("truncated verbatim block")
		}
		rawfloat.Decode(out, src[n:])
		return nil
	}
	// Reverse stage ③: validate and split the body, then unshuffle all
	// planes in one pass.
	signs, planes, w, _, err := flenc.DecodeBody(src, d.L, d.hdr)
	if err != nil {
		return err
	}
	if w == 0 {
		// Zero block: every code is 0 and 0·2ε is +0 exactly.
		clear(out)
		return nil
	}
	full := out
	if len(out) < d.L {
		full = d.full
	}
	if useAVX2 {
		d.decodeVector(full, signs, planes, w)
	} else {
		abs := d.scratch.Abs[:d.L]
		flenc.Unshuffle(abs, planes, w)
		// Reverse stages ③ (sign merge), ② (prefix sum) and ① (dequantize).
		twoE := d.q.TwoEps()
		var acc int32
		for i, u := range abs {
			acc += mergeSign(u, uint32(signs[i>>3]>>(i&7))&1)
			full[i] = float32(float64(acc) * twoE)
		}
	}
	if len(out) < d.L {
		copy(out, full[:len(out)])
	}
	return nil
}
