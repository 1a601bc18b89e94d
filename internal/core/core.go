// Package core implements the CereSZ error-bounded lossy compressor
// (paper §3): block-wise pre-quantization → 1D Lorenzo prediction →
// fixed-length encoding, plus the reverse decompression path, on the host.
// Its reference is the stage chain of internal/stages, the same §4.2
// sub-stages the simulated Cerebras WSE pipeline runs (internal/wse,
// internal/mapping): the tests hold every kernel set to the chain's bytes
// and decoded bits, and both to the known-answer corpus of
// internal/formattest.
//
// The host hot path runs the three stages as one fused pass per block
// (fusedForward: quantize, strictness check, Lorenzo delta, sign split and
// width in a single loop, then a word-parallel bit shuffle straight into
// the output), with pooled per-worker scratch so steady-state compression
// and decompression perform zero allocations. A block whose magnitudes all
// lie within the pass's zero threshold is emitted as a bare header without
// running the kernel (fastpath.go). Blocks are worked through in runs: a
// whole sequential stream or one shard of a parallel pass is one
// encodeRun or decodeRun call, which keeps a one-byte-per-block width
// table and comes back only for a block it does not handle (verbatim, the
// trailing partial block). On amd64 CPUs with
// AVX2 the two run functions are assembly (kernels_amd64.s, chosen once
// from CPUID; decodeRun at sixteen lanes where the CPU has AVX-512);
// everywhere else they are Go loops over the Go block
// kernels, which are also the oracle the assembly is tested against, and
// the bytes are the same. Decoding validates first: one Go scan
// (scanWidths) reads every header and sizes every block before any output
// exists, and the run decoders trust only its table. float32 and float64
// share all of it but the kernels.
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

	"ceresz/internal/flenc"
	"ceresz/internal/hostpool"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
	"ceresz/internal/telemetry"
)

// Telemetry instruments for the host path (telemetry.Default, disabled
// unless a CLI opts in). They are per call, not per block, so the enabled
// path stays well under the 5% overhead budget.
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
)

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
	return compressBound(dst, data, opts, stats)
}

// compressBound resolves opts.Bound to ε and compresses. Only a REL bound
// needs data's value range; an ABS bound skips that pass, which leaves the
// stream and the errors as CompressWithEps has them.
func compressBound[F rawfloat.Float](dst []byte, data []F, opts Options, stats *Stats) ([]byte, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return dst, err
	}
	var minV, maxV float64
	if opts.Bound.Mode != quant.Abs {
		if d, ok := any(data).([]float64); ok {
			minV, maxV = quant.Range64(d)
		} else {
			minV, maxV = quant.Range(any(data).([]float32))
		}
	}
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
	return compressWithEps(dst, data, eps, opts, stats)
}

// compressWithEps checks opts and eps and compresses.
func compressWithEps[F rawfloat.Float](dst []byte, data []F, eps float64, opts Options, stats *Stats) ([]byte, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return dst, err
	}
	if !(eps > 0) {
		return dst, quant.ErrNonPositiveBound
	}
	return compressEps(dst, data, eps, opts, stats)
}

func compressEps[F rawfloat.Float](dst []byte, data []F, eps float64, opts Options, stats *Stats) ([]byte, error) {
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
		Elem:        elemOf[F](),
	})

	// One byte per block, written by whichever shard encodes the block;
	// the pass's statistics are read off it at the end.
	wp := getWidths(nBlocks)
	widths := *wp
	if workers := min(opts.Workers, nBlocks); workers <= 1 {
		enc := getEncoder[F](L, opts.HeaderBytes, q)
		dst = enc.encodeBlocks(dst, data, widths)
		putEncoder(enc)
	} else {
		// Parallel path: shard the block range over the shared host pool
		// (internal/hostpool), encode each shard into a pooled buffer, then
		// stitch the shards back in order. The output is byte-identical to
		// the sequential path at any worker count.
		sp := getShards(workers)
		shards := *sp
		hostpool.Run(workers, nBlocks, func(k, lo, hi int) {
			telWorkers.Add(1)
			defer telWorkers.Add(-1)
			enc := getEncoder[F](L, opts.HeaderBytes, q)
			buf := slices.Grow(shards[k].buf[:0], (hi-lo)*enc.reserve)
			shards[k].buf = enc.encodeBlocks(buf, data[lo*L:min(hi*L, len(data))], widths[lo:hi])
			putEncoder(enc)
		})
		for i := range shards {
			dst = append(dst, shards[i].buf...)
		}
		putShards(sp)
	}
	stats.tally(widths)
	widthsPool.Put(wp)
	stats.CompressedBytes = len(dst) - start
	recordCompressTelemetry(stats, rawfloat.Size[F]())
	return dst, nil
}

// widthVerbatim is a verbatim block's entry in a width table; every other
// entry is the block's fixed length, 0 for a zero block.
const widthVerbatim = flenc.VerbatimU8

// tally fills in the per-block counts from a finished pass's width table.
func (s *Stats) tally(widths []byte) {
	for _, w := range widths {
		if w == widthVerbatim {
			s.VerbatimBlocks++
		} else {
			s.WidthHistogram[w]++
		}
	}
	s.ZeroBlocks = s.WidthHistogram[0]
}

// blockReserve is the room one block can take on the wire: the widest
// coded block or a verbatim one, whichever is larger (at L = 32 a width-32
// float32 block is 136 bytes, its verbatim form 132). The run kernels
// write into room reserved at this much per block and never grow it.
func blockReserve(L, headerBytes, elemSize int) int {
	return max(wireSize(flenc.MaxWidth, L, headerBytes, elemSize), wireSize(widthVerbatim, L, headerBytes, elemSize))
}

// recordCompressTelemetry publishes a finished pass's aggregates. One call
// per pass, so its cost is independent of the data size.
func recordCompressTelemetry(stats *Stats, elemSize int) {
	if !telemetry.Enabled() {
		return
	}
	telCompressBlocks.Add(int64(stats.Blocks))
	telCompressBytesIn.Add(int64(elemSize * stats.Elements))
	telCompressBytesOut.Add(int64(stats.CompressedBytes))
	telCompressZero.Add(int64(stats.ZeroBlocks))
	telCompressVerbatim.Add(int64(stats.VerbatimBlocks))
}

// shardBuf is one shard's share of a parallel pass: a recycled output
// buffer (compress) or the body offset of its first block (decompress).
// Recycling the buffers through shardSetPool is what lets Workers > 1
// amortize its per-call allocations across calls.
type shardBuf struct {
	buf   []byte
	start int
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

// widthsPool recycles width tables between passes.
var widthsPool sync.Pool

func getWidths(n int) *[]byte {
	p, _ := widthsPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = slices.Grow((*p)[:0], n)[:n]
	return p
}

// blockEncoder holds the per-worker scratch state for encoding blocks,
// plus local (unsynchronized) telemetry accumulators flushed once per
// worker. Encoders are recycled through encoderPools; getEncoder resets
// the per-pass state and rebuilds the buffers only when L changes.
type blockEncoder[F rawfloat.Float] struct {
	L       int
	hdr     int
	reserve int // blockReserve: the room every block is given
	q       quant.Quantizer
	zeroT   F // zeroThreshold of q: blocks within it skip the kernel
	padded  []F
	scratch *flenc.Block
}

// encoderPools and decoderPools hold one pool per element type, indexed
// by Elem.
var encoderPools, decoderPools [2]sync.Pool

func getEncoder[F rawfloat.Float](L, headerBytes int, q quant.Quantizer) *blockEncoder[F] {
	e, _ := encoderPools[elemOf[F]()].Get().(*blockEncoder[F])
	if e == nil || e.L != L {
		e = &blockEncoder[F]{
			L:       L,
			padded:  make([]F, L),
			scratch: flenc.NewBlock(L),
		}
	}
	e.hdr = headerBytes
	e.reserve = blockReserve(L, headerBytes, rawfloat.Size[F]())
	e.q = q
	e.zeroT = zeroThreshold[F](&q)
	return e
}

func putEncoder[F rawfloat.Float](e *blockEncoder[F]) { encoderPools[elemOf[F]()].Put(e) }

// encodeBlocks appends the encoding of src — whole blocks, then at most one
// partial block, which is zero-padded to L — to dst, and records block b's
// width in widths[b].
func (e *blockEncoder[F]) encodeBlocks(dst []byte, src []F, widths []byte) []byte {
	full := len(src) / e.L
	dst = e.encodeFull(dst, src[:full*e.L], widths[:full])
	if full < len(widths) {
		clear(e.padded[copy(e.padded, src[full*e.L:]):])
		dst = e.encodeFull(dst, e.padded, widths[full:])
	}
	return dst
}

// encodeFull is encodeBlocks for len(widths) whole blocks. It hands
// encodeRun as long a run as it can and the room dst has, and takes a block
// itself only where the run stops: out of room (dst is grown and the run
// resumed) or at a block to store verbatim.
func (e *blockEncoder[F]) encodeFull(dst []byte, src []F, widths []byte) []byte {
	L := e.L
	for b := 0; b < len(widths); {
		if cap(dst)-len(dst) < e.reserve {
			dst = slices.Grow(dst, e.reserve)
		}
		done, used := e.encodeRun(dst[len(dst):cap(dst)], src[b*L:], widths[b:])
		dst = dst[:len(dst)+used]
		b += done
		if b < len(widths) && cap(dst)-len(dst) >= e.reserve {
			// Not for want of room: the block is one the kernels cannot code.
			dst = appendVerbatim(dst, src[b*L:(b+1)*L], e.hdr)
			widths[b] = widthVerbatim
			b++
		}
	}
	return dst
}

// encodeRunGo is encodeRun on the Go kernels: it encodes the blocks of src
// one after another into room, recording their widths, until all are done,
// fewer than e.reserve bytes of room remain, or a block must be stored
// verbatim. done is the number of blocks encoded, used the bytes written.
func (e *blockEncoder[F]) encodeRunGo(room []byte, src []F, widths []byte) (done, used int) {
	L := e.L
	abs, signs := e.scratch.Abs[:L], e.scratch.Signs[:L/8]
	for b := range widths {
		if len(room)-used < e.reserve {
			return b, used
		}
		block := src[b*L : (b+1)*L]
		// Zero-block prescan: a block inside the zero threshold has width 0
		// whatever the kernel would compute, so the kernel is skipped.
		var w uint
		if !allWithin(block, e.zeroT) {
			var ok bool
			if w, ok = e.fusedForward(block); !ok {
				return b, used
			}
		}
		widths[b] = byte(w)
		used += len(flenc.AppendEncoded(room[used:used], abs, signs, w, e.hdr))
	}
	return len(widths), used
}

// fusedForward runs stages ①+② and the Sign/Max/GetLength sub-stages of ③
// in a single pass over one block of L elements: quantize (multiply +
// floor), strictness check, Lorenzo delta, branchless sign split into
// scratch.Abs/Signs, and width via OR-accumulation
// (bits.Len32(a|b) == max(bits.Len32(a), bits.Len32(b))).
//
// ok == false means the block must be stored verbatim. The decision is
// identical to the stage chain's (internal/stages): that one stores
// verbatim iff any element fails the int32-range check or the strictness
// check, so exiting at the first failure — before the later checks run —
// selects the same blocks, and verbatim payloads are the raw floats
// regardless.
func (e *blockEncoder[F]) fusedForward(src []F) (w uint, ok bool) {
	abs := e.scratch.Abs[:e.L]
	signs := e.scratch.Signs[:e.L/8]
	q := e.q // a local keeps the quantizer in registers
	var acc uint32
	var prev int32
	for j := range signs {
		v := src[8*j : 8*j+8 : 8*j+8]
		a := abs[8*j : 8*j+8 : 8*j+8]
		var sb uint32
		for i, x := range v {
			// ① quantize, with the range and strictness checks.
			p, ok := quantizeStrict(q, x)
			if !ok {
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

// appendVerbatim appends one block stored raw: the verbatim marker, then
// the elements as they are.
func appendVerbatim[F rawfloat.Float](dst []byte, block []F, headerBytes int) []byte {
	return rawfloat.Append(flenc.AppendHeader(dst, headerBytes, flenc.VerbatimU32), block)
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

// scanWidths is the decoder's one validating pass over a stream body: it
// reads every block header, fills widths (one entry per block: the fixed
// length, 0 for a zero block, widthVerbatim) and gives each of the shards
// (at least one) its start — the body offset of block k·n/len(shards),
// shard k's first (hostpool.Run's cut). It is the only code that reads a
// header and the only code that trusts no byte; on a nil error
//
//   - every header value is 0…flenc.MaxWidth or the verbatim marker,
//   - every block, sized by its header, lies inside body,
//
// which is all the run decoders are told about the body: they take block
// sizes from widths and never look at a header. Bytes past the last block
// are ignored. elemSize is the verbatim payload's element width.
func scanWidths(body []byte, m Meta, elemSize int, widths []byte, shards []shardBuf) error {
	// size[w] is what a block takes on the wire, by the low byte of its
	// header — which is also its width-table entry: the fixed length, or
	// 0xFF in the verbatim marker of either header size. 0 marks the values
	// no header may hold.
	var size [256]int
	for w := 0; w <= flenc.MaxWidth; w++ {
		size[w] = wireSize(byte(w), m.BlockLen, m.HeaderBytes, elemSize)
	}
	size[widthVerbatim] = wireSize(widthVerbatim, m.BlockLen, m.HeaderBytes, elemSize)
	pos := 0
	for k := range shards {
		shards[k].start = pos
		lo, hi := k*len(widths)/len(shards), (k+1)*len(widths)/len(shards)
		done, end := scanRun(body, pos, widths[lo:hi], m.HeaderBytes, &size)
		if lo+done < hi {
			return blockError(body[end:], lo+done, m.HeaderBytes)
		}
		pos = end
	}
	return nil
}

// scanRun is scanWidths' loop over the blocks of one shard, the first at
// body[pos]. It stops at the first block that is malformed or not wholly
// inside body, and returns the number of blocks before it and where the
// last of them ends.
func scanRun(body []byte, pos int, widths []byte, hdr int, size *[256]int) (done, end int) {
	for b := range widths {
		if len(body)-pos < hdr {
			return b, pos
		}
		// Only the low byte sits on the chain from one header to the next.
		// The other three of a 4-byte header must extend it: zeros above a
		// fixed length, ones above the verbatim marker's 0xFF — its sign
		// extension, for the only low bytes size lets through.
		w := body[pos]
		if hdr == flenc.HeaderU32 && binary.LittleEndian.Uint32(body[pos:]) != uint32(int8(w)) {
			return b, pos
		}
		next := pos + size[w]
		if next == pos || next > len(body) {
			return b, pos
		}
		widths[b] = w
		pos = next
	}
	return len(widths), pos
}

// blockError says what is wrong with block b, which starts at rest[0] and
// which scanRun stopped at.
func blockError(rest []byte, b, headerBytes int) error {
	v, _, err := flenc.Header(rest, headerBytes)
	switch {
	case err != nil:
		return fmt.Errorf("%w: block %d: %v", ErrBadStream, b, err)
	case v > flenc.MaxWidth && v != flenc.VerbatimU32:
		return fmt.Errorf("%w: block %d: invalid fixed length %d", ErrBadStream, b, v)
	}
	return fmt.Errorf("%w: block %d overruns stream", ErrBadStream, b)
}

// wireSize returns the bytes a block with width-table entry w takes.
func wireSize(w byte, blockLen, headerBytes, elemSize int) int {
	if w == widthVerbatim {
		return headerBytes + elemSize*blockLen
	}
	return flenc.EncodedSize(uint(w), blockLen, headerBytes)
}

// BlockOffsets parses the container header and scans the stream body,
// returning the parsed metadata and the byte offsets (relative to the body
// start, StreamHeaderSize) of every block plus a final end offset —
// offsets[b]..offsets[b+1] delimits block b. Float32 streams only.
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
	widths := make([]byte, m.Blocks())
	if err := scanWidths(comp[StreamHeaderSize:], m, 4, widths, make([]shardBuf, 1)); err != nil {
		return m, nil, err
	}
	offsets := make([]int, len(widths)+1)
	for b, w := range widths {
		offsets[b+1] = offsets[b] + wireSize(w, m.BlockLen, m.HeaderBytes, 4)
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
// capacity it performs zero allocations in steady state. On an error dst
// is returned as it was passed.
func Decompress(dst []float32, comp []byte, workers int) ([]float32, Meta, error) {
	return decompress(dst, comp, workers)
}

func decompress[F rawfloat.Float](dst []F, comp []byte, workers int) ([]F, Meta, error) {
	defer telDecompress.Start().End()
	m, err := ParseHeader(comp)
	if err != nil {
		return dst, m, err
	}
	if want := elemOf[F](); m.Elem != want {
		return dst, m, fmt.Errorf("%w: stream holds %s elements, expected %s", ErrBadStream, m.Elem, want)
	}
	if err := checkPlausible(m, len(comp)); err != nil {
		return dst, m, err
	}
	q, err := quant.MakeQuantizer(m.Eps)
	if err != nil {
		return dst, m, err
	}
	body := comp[StreamHeaderSize:]
	nBlocks := m.Blocks()
	L, hdr, twoE := m.BlockLen, m.HeaderBytes, q.TwoEps()
	workers = max(1, min(resolveWorkers(workers), nBlocks))

	// Pass 1: validate the body, size every block and find where each
	// shard starts. Headers are self-describing, so this is a cheap
	// sequential scan (the paper's "pre-known fixed-length" decompression
	// advantage, §3), and every way a stream can be malformed is found
	// here, before dst grows.
	wp, sp := getWidths(nBlocks), getShards(workers)
	defer widthsPool.Put(wp)
	defer putShards(sp)
	widths, shards := *wp, *sp
	if err := scanWidths(body, m, rawfloat.Size[F](), widths, shards); err != nil {
		return dst, m, err
	}

	// Pass 2: decode, one run per shard.
	start := len(dst)
	dst = slices.Grow(dst, m.Elements)[:start+m.Elements]
	out := dst[start:]
	if workers == 1 {
		dec := getDecoder[F](L)
		dec.decodeBlocks(out, body, widths, hdr, twoE)
		putDecoder(dec)
	} else {
		// Shards write disjoint regions of out, so no stitch is needed.
		hostpool.Run(workers, nBlocks, func(k, lo, hi int) {
			telWorkers.Add(1)
			defer telWorkers.Add(-1)
			dec := getDecoder[F](L)
			dec.decodeBlocks(out[lo*L:min(hi*L, len(out))], body[shards[k].start:], widths[lo:hi], hdr, twoE)
			putDecoder(dec)
		})
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
	telDecompressBytesOut.Add(int64(m.Elem.Size() * m.Elements))
}

// blockDecoder holds per-worker decode scratch, recycled via decoderPools.
type blockDecoder[F rawfloat.Float] struct {
	L    int
	full []F      // a trailing partial block is decoded whole here
	abs  []uint32 // the Go kernel's unshuffled magnitudes
}

func getDecoder[F rawfloat.Float](L int) *blockDecoder[F] {
	d, _ := decoderPools[elemOf[F]()].Get().(*blockDecoder[F])
	if d == nil || d.L != L {
		d = &blockDecoder[F]{L: L, full: make([]F, L), abs: make([]uint32, L)}
	}
	return d
}

func putDecoder[F rawfloat.Float](d *blockDecoder[F]) { decoderPools[elemOf[F]()].Put(d) }

// decodeBlocks reconstructs len(widths) consecutive blocks into out — whole
// blocks, then at most one partial block — from a body that starts at the
// first of them and a width table scanWidths has filled from that body. It
// hands decodeRun as long a run as there is and takes a block itself only
// where the run stops: at a verbatim block, or at the trailing partial one.
func (d *blockDecoder[F]) decodeBlocks(out []F, body, widths []byte, hdr int, twoE float64) {
	L := d.L
	full := len(out) / L
	pos := 0
	for b := 0; b < full; {
		done, used := d.decodeRun(out[b*L:full*L], body[pos:], widths[b:full], hdr, twoE)
		b, pos = b+done, pos+used
		if b < full {
			rawfloat.Decode(out[b*L:(b+1)*L], body[pos+hdr:])
			b, pos = b+1, pos+wireSize(widthVerbatim, L, hdr, rawfloat.Size[F]())
		}
	}
	if full < len(widths) {
		d.decodeBlocks(d.full, body[pos:], widths[full:], hdr, twoE)
		copy(out[full*L:], d.full)
	}
}

// decodeRunGo is decodeRun on the Go kernels: it decodes the blocks widths
// describes one after another from body into out until all are done or one
// is verbatim. done is the number of blocks decoded, used the body bytes
// they took. A coded block fuses the reverse stages: after the
// word-parallel unshuffle, one loop merges signs, runs the Lorenzo prefix
// sum and dequantizes — the same int32 wraparound arithmetic and rounding
// to the element type as the chain's MergeSigns → PrefixSum → DeqMul, so
// output bits are identical (the differential fuzz asserts it).
func (d *blockDecoder[F]) decodeRunGo(out []F, body, widths []byte, hdr int, twoE float64) (done, used int) {
	L, pb := d.L, d.L/8
	for b, w := range widths {
		block := out[b*L : (b+1)*L]
		if w == 0 {
			// Zero block: every code is 0 and 0·2ε is +0 exactly.
			clear(block)
			used += hdr
			continue
		}
		if w == widthVerbatim {
			return b, used
		}
		signs := body[used+hdr : used+hdr+pb]
		used += hdr + pb
		// Reverse stages ③ (unshuffle, sign merge), ② (prefix sum) and ①
		// (dequantize).
		flenc.Unshuffle(d.abs, body[used:used+int(w)*pb], uint(w))
		used += int(w) * pb
		var acc int32
		for i, u := range d.abs {
			acc += mergeSign(u, uint32(signs[i>>3]>>(i&7))&1)
			block[i] = F(float64(acc) * twoE)
		}
	}
	return len(widths), used
}
