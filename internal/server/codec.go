package server

import (
	"io"
	"slices"
	"time"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/cszf"
	"ceresz/internal/rawfloat"
	"ceresz/internal/spine"
)

// codec is one worker's pooled compression state. Every buffer is reused
// across chunks and across requests, so once warm the per-chunk compress
// path performs zero heap allocations (asserted by TestCompressHotPathZeroAlloc):
// the request body is read into f32/f64 through their byte image (raw),
// and the compressed frame is assembled in frame — a CSZF header (package
// cszf) followed by the container written by the zero-alloc *Into entry
// points, so header and payload go out in one Write.
// A codec is owned by exactly one request at a time (the pool hands it
// out), so no locking.
type codec struct {
	id  int // worker index, used as the trace track id
	f32 []float32
	f64 []float64
	// raw is the wire image of the chunk in f32/f64 (package rawfloat): the
	// bytes readChunk took off the request body, or the bytes a decompress
	// handler is about to write. On a little-endian host it is the floats'
	// own memory, not a second copy.
	raw   []byte
	frame []byte // CSZF frame under construction: 8-byte header + payload
	stats ceresz.Stats
	sr    *ceresz.StreamReader
	// body is a streaming endpoint's request body, armed by stream.
	body countingReader
	// tr is the span of the request holding this codec, never nil: newCodec
	// gives it an idle span of its own until admit hands it a request's.
	tr *reqSpan
	// hasher derives the chunk-cache keys of decompress frames; per-codec
	// so key derivation needs no locking and reuses one Hasher's state
	// (zero allocations per key).
	hasher *chunkcache.Hasher
}

func newCodec(id int) *codec {
	return &codec{id: id, sr: ceresz.NewStreamReader(nil), tr: new(reqSpan), hasher: chunkcache.NewHasher()}
}

// elemCodec is a codec's element-typed half: the float buffer of one
// element type and the library's entry points over it. elemCodecs holds
// one per wire element type, so the request path picks its element type by
// table lookup rather than by branching, and the library's float32/float64
// function pairs meet the server here only.
type elemCodec interface {
	// read reads up to n elements from r into the buffer, leaving their
	// wire image in c.raw, and returns the byte count. A short final read
	// returns io.EOF.
	read(c *codec, r io.Reader, n int) (int, error)
	// compress appends the buffer's stream to c.frame.
	compress(c *codec, b ceresz.Bound, o ceresz.Options) error
	// decode decompresses a stream into the buffer and returns its wire
	// image.
	decode(c *codec, comp []byte, o ceresz.Options) ([]byte, error)
	// addField adds the buffer to a bundle.
	addField(c *codec, bw *ceresz.BundleWriter, name string, dims ceresz.Dims, b ceresz.Bound, o ceresz.Options) error
	// readField decodes a bundle member and returns its wire image.
	readField(c *codec, br *ceresz.BundleReader, name string) ([]byte, error)
}

// floats is the elemCodec of F: where a codec keeps its F buffer, and the
// library functions for F.
type floats[F rawfloat.Float] struct {
	buf        func(*codec) *[]F
	compressTo func([]byte, []F, ceresz.Bound, ceresz.Options, *ceresz.Stats) ([]byte, error)
	decompress func([]F, []byte, ceresz.Options) ([]F, error)
	add        func(*ceresz.BundleWriter, string, ceresz.Dims, []F, ceresz.Bound, ceresz.Options) (*ceresz.Stats, error)
	member     func(*ceresz.BundleReader, string) ([]F, ceresz.BundleField, error)
}

var elemCodecs = [...]elemCodec{
	spine.F32: floats[float32]{
		buf:        func(c *codec) *[]float32 { return &c.f32 },
		compressTo: ceresz.CompressInto,
		decompress: ceresz.DecompressWith,
		add:        (*ceresz.BundleWriter).AddField,
		member:     (*ceresz.BundleReader).ReadField,
	},
	spine.F64: floats[float64]{
		buf:        func(c *codec) *[]float64 { return &c.f64 },
		compressTo: ceresz.Compress64Into,
		decompress: ceresz.Decompress64With,
		add:        (*ceresz.BundleWriter).AddField64,
		member:     (*ceresz.BundleReader).ReadField64,
	},
}

func (e floats[F]) read(c *codec, r io.Reader, n int) (int, error) {
	vals := e.buf(c)
	*vals = slices.Grow((*vals)[:0], n)[:n]
	var err error
	c.raw, err = rawfloat.ReadFull(r, *vals, c.raw)
	*vals = (*vals)[:len(c.raw)/rawfloat.Size[F]()]
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return len(c.raw), err
}

func (e floats[F]) compress(c *codec, b ceresz.Bound, o ceresz.Options) (err error) {
	c.frame, err = e.compressTo(c.frame, *e.buf(c), b, o, &c.stats)
	return err
}

func (e floats[F]) decode(c *codec, comp []byte, o ceresz.Options) ([]byte, error) {
	vals := e.buf(c)
	var err error
	if *vals, err = e.decompress((*vals)[:0], comp, o); err != nil {
		return nil, err
	}
	return wire(c, *vals), nil
}

func (e floats[F]) addField(c *codec, bw *ceresz.BundleWriter, name string, dims ceresz.Dims, b ceresz.Bound, o ceresz.Options) error {
	_, err := e.add(bw, name, dims, *e.buf(c), b, o)
	return err
}

func (e floats[F]) readField(c *codec, br *ceresz.BundleReader, name string) ([]byte, error) {
	vals, _, err := e.member(br, name)
	if err != nil {
		return nil, err
	}
	return wire(c, vals), nil
}

// bound is the codec bound a mode and eps name.
func bound(abs bool, eps float64) ceresz.Bound {
	if abs {
		return ceresz.ABS(eps)
	}
	return ceresz.REL(eps)
}

// readChunk reads one raw chunk (up to p.ChunkElems elements) into the
// codec's buffer for p.Elem. It returns the byte count and io.EOF once the
// body is drained; a byte count that does not divide the element size is
// rejected here so the compress step always sees whole elements.
func (c *codec) readChunk(r io.Reader, p spine.CompressParams) (int, error) {
	n, err := elemCodecs[p.Elem].read(c, r, p.ChunkElems)
	if err != nil && (n == 0 || err != io.EOF) {
		return n, err // io.EOF once the body is drained
	}
	if es := p.Elem.Size(); n%es != 0 {
		return n, badRequestf("body length %d is not a multiple of the %d-byte element size", n, es)
	}
	return n, nil
}

// compress compresses the chunk readChunk left in the codec and assembles
// its CSZF frame in c.frame. Steady-state zero-alloc: all buffers are warm
// after the first chunk.
func (c *codec) compress(p spine.CompressParams) ([]byte, error) {
	c.frame = cszf.AppendHeader(c.frame[:0], 0)
	tc := time.Now()
	err := elemCodecs[p.Elem].compress(c, bound(p.Abs, p.Eps), ceresz.Options{BlockLen: p.BlockLen})
	c.tr.observe(stageCodec, tc)
	if err != nil {
		return nil, err
	}
	return c.frame, cszf.Seal(c.frame)
}

// decode decompresses one frame payload into the codec's buffer for elem
// and returns the floats as wire bytes, valid until the codec's next read
// or decode.
func (c *codec) decode(payload []byte, elem spine.Elem) ([]byte, error) {
	td := time.Now()
	out, err := elemCodecs[elem].decode(c, payload, ceresz.Options{})
	c.tr.observe(stageCodec, td)
	return out, err
}

// wire returns the raw little-endian bytes of vals (c.raw: on a
// little-endian host, vals' own memory).
func wire[F rawfloat.Float](c *codec, vals []F) []byte {
	c.raw = rawfloat.Bytes(c.raw, vals)
	return c.raw
}
