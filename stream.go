package ceresz

import (
	"errors"
	"io"
	"sync"

	"ceresz/internal/core"
	"ceresz/internal/cszf"
	"ceresz/internal/rawfloat"
	"ceresz/internal/telemetry"
)

// Framed-stream instruments (Default registry; active after
// EnableTelemetry). One duration observation and a few counter adds per
// chunk, so the cost is independent of chunk size.
var (
	telStreamWrite     = telemetry.T("stream.write_chunk")
	telStreamRead      = telemetry.T("stream.read_chunk")
	telStreamChunks    = telemetry.C("stream.chunks")
	telStreamRawBytes  = telemetry.C("stream.bytes_raw")
	telStreamCompBytes = telemetry.C("stream.bytes_compressed")
	telStreamChunkSize = telemetry.H("stream.chunk_compressed_bytes")
)

// Compress64 appends the CereSZ stream for float64 data to dst. Double
// precision admits error bounds far below float32's representable
// resolution (several SDRBench archives are double precision).
func Compress64(dst []byte, data []float64, bound Bound, opts Options) ([]byte, *Stats, error) {
	return core.Compress64(dst, data, opts.coreOptions(bound))
}

// Compress64Into is Compress64 writing its statistics into a
// caller-provided Stats; with Workers: 1 and sufficient dst capacity it
// performs zero allocations in steady state.
func Compress64Into(dst []byte, data []float64, bound Bound, opts Options, stats *Stats) ([]byte, error) {
	return core.Compress64Into(dst, data, opts.coreOptions(bound), stats)
}

// Compress64WithEps is Compress64 with a pre-resolved absolute ε.
func Compress64WithEps(dst []byte, data []float64, eps float64, opts Options) ([]byte, *Stats, error) {
	return core.Compress64WithEps(dst, data, eps, opts.coreOptions(Bound{}))
}

// Decompress64 reconstructs float64 data from a Compress64 stream. It runs
// sequentially; use Decompress64With to shard across CPU cores.
func Decompress64(dst []float64, comp []byte) ([]float64, error) {
	out, _, err := core.Decompress64(dst, comp, 0)
	return out, err
}

// Decompress64With is Decompress64 honoring opts.Workers.
func Decompress64With(dst []float64, comp []byte, opts Options) ([]float64, error) {
	out, _, err := core.Decompress64(dst, comp, opts.Workers)
	return out, err
}

// Elem identifies a stream's element type (Float32 or Float64).
type Elem = core.Elem

// Element types.
const (
	Float32 = core.Float32
	Float64 = core.Float64
)

// ElemOf reports a stream's element type without parsing the rest of it.
func ElemOf(comp []byte) (Elem, error) { return core.ElemOf(comp) }

// Framed streaming: each chunk is an independent CereSZ stream wrapped in
// a small frame, so an unbounded instrument feed can be compressed as it
// arrives and any chunk can be decoded without the others — the inline
// compression scenario of the paper's introduction (LCLS produces raw
// snapshots at 250 GB/s; RTM emits terabytes per timestamp).
//
// Frame layout (defined in internal/cszf): 4-byte magic "CSZF", uint32
// little-endian payload length, payload (one CereSZ container). A REL bound
// resolves per chunk — each chunk's ε follows its own value range; use ABS
// for a uniform guarantee.

// ErrStreamClosed is returned by operations on a closed StreamWriter.
var ErrStreamClosed = errors.New("ceresz: stream writer closed")

// ErrTruncated reports input that ends mid-frame or mid-index: the length
// fields promise more bytes than the source delivers. Typed so servers can
// map it to a 4xx instead of a generic decode failure.
var ErrTruncated = cszf.ErrTruncated

// ErrFrameTooLarge reports a frame, element count or bundle member that
// exceeds the configured decode limits (StreamReader.SetLimits,
// OpenBundleLimited) or the format's hard cap.
var ErrFrameTooLarge = cszf.ErrFrameTooLarge

// StreamWriter frames independently-decodable compressed chunks onto an
// io.Writer. Not safe for concurrent use.
type StreamWriter struct {
	w      io.Writer
	bound  Bound
	opts   Options
	buf    []byte
	stats  Stats
	closed bool
	// Chunks counts frames written so far.
	Chunks int
	// RawBytes and CompressedBytes accumulate totals.
	RawBytes, CompressedBytes int64
}

// streamBufPool hands a closed writer's compression buffer to the next one,
// so a caller that opens a StreamWriter per message does not regrow a chunk-
// sized buffer from nil (some twenty reallocations) on every first chunk.
var streamBufPool sync.Pool // of *[]byte

// NewStreamWriter returns a StreamWriter compressing each chunk under
// bound with opts.
func NewStreamWriter(w io.Writer, bound Bound, opts Options) *StreamWriter {
	sw := &StreamWriter{w: w, bound: bound, opts: opts}
	if b, _ := streamBufPool.Get().(*[]byte); b != nil {
		sw.buf = *b
	}
	return sw
}

// WriteChunk compresses one float32 chunk and writes its frame. After the
// first chunk the writer's compression buffer is warm, so with Workers: 1
// the only steady-state allocation is the returned Stats snapshot.
func (sw *StreamWriter) WriteChunk(data []float32) (*Stats, error) {
	return writeChunk(sw, data, CompressInto)
}

// WriteChunk64 compresses one float64 chunk and writes its frame.
func (sw *StreamWriter) WriteChunk64(data []float64) (*Stats, error) {
	return writeChunk(sw, data, Compress64Into)
}

// writeChunk compresses data behind a frame header in the writer's buffer,
// so header and payload leave in one Write, and keeps the books.
func writeChunk[F rawfloat.Float](sw *StreamWriter, data []F,
	compress func([]byte, []F, Bound, Options, *Stats) ([]byte, error)) (*Stats, error) {
	if sw.closed {
		return nil, ErrStreamClosed
	}
	defer telStreamWrite.Start().End()
	var err error
	if sw.buf, err = compress(cszf.AppendHeader(sw.buf[:0], 0), data, sw.bound, sw.opts, &sw.stats); err != nil {
		return nil, err
	}
	if err := cszf.Seal(sw.buf); err != nil {
		return nil, err
	}
	if _, err := sw.w.Write(sw.buf); err != nil {
		return nil, err
	}
	raw := int64(rawfloat.Size[F]() * len(data))
	sw.RawBytes += raw
	sw.CompressedBytes += int64(len(sw.buf))
	sw.Chunks++
	if telemetry.Enabled() {
		telStreamChunks.Add(1)
		telStreamRawBytes.Add(raw)
		telStreamCompBytes.Add(int64(len(sw.buf)))
		telStreamChunkSize.Observe(int64(len(sw.buf) - cszf.HeaderSize))
	}
	out := sw.stats
	return &out, nil
}

// Ratio returns the stream-wide compression ratio so far (framing
// included).
func (sw *StreamWriter) Ratio() float64 {
	if sw.CompressedBytes == 0 {
		return 0
	}
	return float64(sw.RawBytes) / float64(sw.CompressedBytes)
}

// Close marks the writer closed and hands its compression buffer to the
// next writer. It does not close the underlying writer.
func (sw *StreamWriter) Close() error {
	if cap(sw.buf) > 0 {
		b := sw.buf[:0]
		streamBufPool.Put(&b)
		sw.buf = nil
	}
	sw.closed = true
	return nil
}

// StreamReader iterates over the frames written by StreamWriter.
// Not safe for concurrent use.
type StreamReader struct {
	fr      cszf.Reader
	out     []float32
	workers int
}

// NewStreamReader returns a StreamReader over r.
func NewStreamReader(r io.Reader) *StreamReader {
	sr := new(StreamReader)
	sr.fr.Reset(r)
	return sr
}

// Reset points the reader at a new source while keeping its internal
// buffers (and limits) warm — the steady-state form for servers decoding
// one framed stream per request.
func (sr *StreamReader) Reset(r io.Reader) {
	sr.fr.Reset(r)
}

// SetLimits caps what a single frame may cost to decode: maxFrameBytes
// bounds the compressed payload length accepted from a frame header, and
// maxElements bounds the decoded element count a payload may declare (and
// holds that count to what the payload's length can carry). Zero leaves
// the respective limit at the format's hard cap. Violations surface as
// ErrFrameTooLarge before any decode-sized allocation happens — set both
// when reading untrusted input.
func (sr *StreamReader) SetLimits(maxFrameBytes, maxElements int) {
	sr.fr.SetLimits(cszf.Limits{MaxFrameBytes: maxFrameBytes, MaxElements: maxElements})
}

// SetWorkers bounds the parallelism each frame is decoded with, following
// Options.Workers semantics (0/1 sequential, > 1 sharded over the host
// pool, negative = all cores). Frames are still delivered strictly in
// stream order; only the blocks inside one frame decode in parallel, so
// the decoded values are identical at any setting. The setting survives
// Reset.
func (sr *StreamReader) SetWorkers(n int) {
	sr.workers = n
}

// Next decodes the next float32 chunk. It returns io.EOF after the last
// frame. The returned slice is owned by the caller.
func (sr *StreamReader) Next() ([]float32, error) {
	defer telStreamRead.Start().End()
	payload, err := sr.fr.Next()
	if err != nil {
		return nil, err
	}
	sr.out, _, err = core.Decompress(sr.out[:0], payload, sr.workers)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(sr.out))
	copy(out, sr.out)
	return out, nil
}

// NextInto decodes the next float32 chunk appending to dst (which may be
// nil), returning the extended slice. Unlike Next it performs no final
// copy into a fresh slice; pass dst[:0] with warm capacity to reuse one
// buffer across chunks (the steady-state counterpart of WriteChunk).
func (sr *StreamReader) NextInto(dst []float32) ([]float32, error) {
	defer telStreamRead.Start().End()
	payload, err := sr.fr.Next()
	if err != nil {
		return dst, err
	}
	out, _, err := core.Decompress(dst, payload, sr.workers)
	return out, err
}

// Next64 decodes the next float64 chunk.
func (sr *StreamReader) Next64() ([]float64, error) {
	defer telStreamRead.Start().End()
	payload, err := sr.fr.Next()
	if err != nil {
		return nil, err
	}
	out, _, err := core.Decompress64(nil, payload, sr.workers)
	return out, err
}

// Next64Into decodes the next float64 chunk appending to dst (which may be
// nil) — the steady-state counterpart of NextInto for double-precision
// streams.
func (sr *StreamReader) Next64Into(dst []float64) ([]float64, error) {
	defer telStreamRead.Start().End()
	payload, err := sr.fr.Next()
	if err != nil {
		return dst, err
	}
	out, _, err := core.Decompress64(dst, payload, sr.workers)
	return out, err
}

// NextRaw reads the next frame's compressed payload without decoding it,
// applying the same validation as the decoding iterators (frame magic,
// length caps, element-count caps — the typed ErrTruncated /
// ErrFrameTooLarge / ErrBadStream failures are identical). The returned
// bytes live in the reader's internal buffer and are valid only until the
// next call; decode them with DecompressWith / Decompress64With, or hash
// them first — cereszd's chunk cache addresses frames this way before
// paying for the decode.
func (sr *StreamReader) NextRaw() ([]byte, error) {
	defer telStreamRead.Start().End()
	return sr.fr.Next()
}

// Skip advances past the next frame without decoding it, returning its
// metadata — random access within a recorded stream.
func (sr *StreamReader) Skip() (Meta, error) {
	payload, err := sr.fr.Next()
	if err != nil {
		return Meta{}, err
	}
	return Parse(payload)
}
