package server

import (
	"encoding/binary"
	"io"
	"slices"
	"time"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/rawfloat"
)

// codec is one worker's pooled compression state. Every buffer is reused
// across chunks and across requests, so once warm the per-chunk compress
// path performs zero heap allocations (asserted by TestCompressHotPathZeroAlloc):
// the request body is read into f32/f64 through their byte image (raw),
// and the compressed frame is assembled in frame — an 8-byte CSZF header
// followed by the container written by the zero-alloc *Into entry points.
// A codec is owned by exactly one request at a time (the pool hands it
// out), so no locking.
type codec struct {
	id  int // worker index, used as the trace track id
	f32 []float32
	f64 []float64
	// raw is the wire image of the chunk in f32/f64 (package rawfloat): the
	// bytes readChunk took off the request body and cacheKeyCompress
	// hashes, or the bytes a decompress handler is about to write. On a
	// little-endian host it is the floats' own memory, not a second copy.
	raw   []byte
	frame []byte // CSZF frame under construction: 8-byte header + payload
	stats ceresz.Stats
	sr    *ceresz.StreamReader
	tr    *reqSpan // span of the request currently holding this codec; nil when untraced
	// workers is this request's share of the server's intra-request
	// parallelism budget (Config.HostWorkers), set by admit on checkout.
	// 1 keeps the sequential zero-alloc path.
	workers int
	// hasher derives chunk-cache keys; per-codec so key derivation needs
	// no locking and reuses one Hasher's state (zero allocations per key).
	hasher *chunkcache.Hasher
}

func newCodec(id int) *codec {
	return &codec{id: id, sr: ceresz.NewStreamReader(nil), hasher: chunkcache.NewHasher()}
}

// frameMagic mirrors the package-level CSZF framing (stream.go); the codec
// writes headers itself so header and payload go out in one Write.
var frameMagic = [4]byte{'C', 'S', 'Z', 'F'}

const frameHeaderSize = 8

// cparams is a compress request's resolved configuration.
type cparams struct {
	bound      ceresz.Bound // REL resolves per chunk, like StreamWriter
	abs        bool         // true: bound.Value is a pre-resolved absolute ε
	elem       ceresz.Elem
	chunkElems int
	opts       ceresz.Options // Workers: the request's budget share (1 = zero-alloc path)
}

// elemSize returns the element byte width.
func (p cparams) elemSize() int {
	if p.elem == ceresz.Float64 {
		return 8
	}
	return 4
}

// readFloats reads up to elems raw elements of type elem from r into
// c.f32 or c.f64, leaving their wire image in c.raw, and returns the byte
// count. A short final read is returned with io.EOF; bytes that do not
// divide the element size are the caller's error to raise.
func (c *codec) readFloats(r io.Reader, elem ceresz.Elem, elems int) (int, error) {
	var err error
	if elem == ceresz.Float64 {
		c.f64 = slices.Grow(c.f64[:0], elems)[:elems]
		c.raw, err = rawfloat.ReadFull(r, c.f64, c.raw)
		c.f64 = c.f64[:len(c.raw)/8]
	} else {
		c.f32 = slices.Grow(c.f32[:0], elems)[:elems]
		c.raw, err = rawfloat.ReadFull(r, c.f32, c.raw)
		c.f32 = c.f32[:len(c.raw)/4]
	}
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return len(c.raw), err
}

// readChunk reads one raw chunk (up to chunkElems elements) into c.f32 or
// c.f64. It returns the byte count and io.EOF once the body is drained; a
// byte count that does not divide the element size is rejected here so the
// compress step always sees whole elements.
func (c *codec) readChunk(r io.Reader, p cparams) (int, error) {
	es := p.elemSize()
	t0 := c.tr.now()
	n, err := c.readFloats(r, p.elem, p.chunkElems)
	c.tr.accum(stageRead, t0)
	if n == 0 {
		if err == io.EOF || err == nil {
			return 0, io.EOF
		}
		return 0, err
	}
	if err != nil && err != io.EOF {
		return n, err
	}
	if n%es != 0 {
		return n, errOddBody(n, es)
	}
	return n, nil
}

// compressF32 compresses the float32 chunk readChunk left in c.f32 and
// assembles the CSZF frame in c.frame. Steady-state zero-alloc: all
// buffers are warm after the first chunk.
func (c *codec) compressF32(p cparams) ([]byte, error) {
	c.frame = append(c.frame[:0], frameMagic[0], frameMagic[1], frameMagic[2], frameMagic[3], 0, 0, 0, 0)
	tc := c.tr.now()
	var err error
	if p.abs {
		c.frame, err = ceresz.CompressWithEpsInto(c.frame, c.f32, p.bound.Value, p.opts, &c.stats)
	} else {
		c.frame, err = ceresz.CompressInto(c.frame, c.f32, p.bound, p.opts, &c.stats)
	}
	return c.finishFrame(tc, err)
}

// compressF64 is compressF32 for the double-precision chunk in c.f64.
func (c *codec) compressF64(p cparams) ([]byte, error) {
	c.frame = append(c.frame[:0], frameMagic[0], frameMagic[1], frameMagic[2], frameMagic[3], 0, 0, 0, 0)
	tc := c.tr.now()
	var err error
	c.frame, err = ceresz.Compress64Into(c.frame, c.f64, p.bound, p.opts, &c.stats)
	return c.finishFrame(tc, err)
}

// finishFrame closes the codec stage opened at tc and stamps the payload
// length into the frame header.
func (c *codec) finishFrame(tc time.Time, err error) ([]byte, error) {
	c.tr.observe(stageCodec, tc)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(c.frame[4:], uint32(len(c.frame)-frameHeaderSize))
	return c.frame, nil
}

// Chunk-cache keys use the canonical layout exported by chunkcache
// (AppendCompressPreamble / AppendDecompressPreamble): a fixed preamble of
// every parameter that shapes the codec's output, and the chunk bytes,
// under Hasher.Key's sixteen-lane SHA-256 tree. internal/cluster routes by
// the same digests, so a consistent-hash proxy lands identical chunks on
// the node whose cache already holds them.

// cacheKeyCompress addresses the raw chunk in c.raw under p: direction,
// element type, bound mode, eps bits and block length all shape the frame
// bytes. Workers is deliberately excluded — the host codec is
// byte-identical at every worker count (the block-parallel differential
// guarantee), so one entry serves all parallelism levels. A REL bound is
// keyed by λ, not the resolved ε: the resolution is a deterministic
// function of the chunk's value range, which the hashed bytes pin down.
func (c *codec) cacheKeyCompress(p cparams) chunkcache.Key {
	pre := chunkcache.AppendCompressPreamble(c.hasher.Preamble(),
		byte(p.elem), p.abs, p.bound.Value, p.opts.BlockLen)
	return c.hasher.Key(pre, c.raw)
}

// cacheKeyDecompress addresses a CSZF frame payload: the payload encodes
// every codec parameter itself, so only the requested output element type
// joins it in the preamble.
func (c *codec) cacheKeyDecompress(payload []byte, wantF64 bool) chunkcache.Key {
	pre := chunkcache.AppendDecompressPreamble(c.hasher.Preamble(), wantF64)
	return c.hasher.Key(pre, payload)
}

// decode decompresses one frame payload into c.f32 or c.f64 and returns
// the floats as wire bytes, valid until the codec's next read or decode.
func (c *codec) decode(payload []byte, wantF64 bool) ([]byte, error) {
	td := c.tr.now()
	opts := ceresz.Options{Workers: c.workers}
	var out []byte
	var err error
	if wantF64 {
		c.f64, err = ceresz.Decompress64With(c.f64[:0], payload, opts)
		out = wire(c, c.f64)
	} else {
		c.f32, err = ceresz.DecompressWith(c.f32[:0], payload, opts)
		out = wire(c, c.f32)
	}
	if err != nil {
		return nil, err
	}
	c.tr.observe(stageCodec, td)
	return out, nil
}

// wire returns the raw little-endian bytes of vals (c.raw: on a
// little-endian host, vals' own memory).
func wire[F rawfloat.Float](c *codec, vals []F) []byte {
	c.raw = rawfloat.Bytes(c.raw, vals)
	return c.raw
}
