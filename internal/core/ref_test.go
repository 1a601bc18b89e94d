package core

import (
	"fmt"

	"ceresz/internal/flenc"
	"ceresz/internal/rawfloat"
	"ceresz/internal/stages"
)

// The codec's reference is the stage chain of internal/stages (Mul → Add
// → Lorenzo → Sign → Max → GetLength → Shuffle[k] → Emit, and its
// reverse), the sub-stage decomposition the simulated wafer runs. The
// tests hold every kernel set to it: stream bytes, width-table entries and
// decoded bits.

// chainEstWidth is the chains' Shuffle/Unshuffle stage count: blocks wider
// than it go through the last stage's folded planes, narrower ones through
// one stage per plane.
const chainEstWidth = 8

// blockRef runs one block at a time through the compression chain.
type blockRef[F rawfloat.Float] struct {
	chain *stages.Chain[F]
	st    *stages.BlockState[F]
}

func newBlockRef[F rawfloat.Float](L, hdr int, eps float64) *blockRef[F] {
	c, err := stages.NewCompress[F](stages.Config{BlockLen: L, HeaderBytes: hdr, Eps: eps, EstWidth: chainEstWidth})
	if err != nil {
		panic(err)
	}
	return &blockRef[F]{chain: c, st: stages.NewBlockState[F](L)}
}

// encode appends the chain's encoding of block (at most L elements, zero-
// padded) to dst and returns its width-table entry.
func (r *blockRef[F]) encode(dst []byte, block []F) ([]byte, byte) {
	r.st.ResetForCompress(block)
	r.chain.RunAll(r.st)
	w := byte(r.st.Width)
	if r.st.Verbatim {
		w = widthVerbatim
	}
	return append(dst, r.st.Encoded...), w
}

// compressRef is the stream the chain makes of data under eps: the
// container header, then every block through blockRef.
func compressRef[F rawfloat.Float](data []F, eps float64, opts Options) ([]byte, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	L := opts.BlockLen
	dst := AppendStreamHeader(nil, Meta{HeaderBytes: opts.HeaderBytes, BlockLen: L, Elements: len(data), Eps: eps, Elem: elemOf[F]()})
	ref := newBlockRef[F](L, opts.HeaderBytes, eps)
	for lo := 0; lo < len(data); lo += L {
		dst, _ = ref.encode(dst, data[lo:min(lo+L, len(data))])
	}
	return dst, nil
}

// decompressRef decodes a stream block by block through the
// decompression chain, finding each block where the one before it ended.
func decompressRef[F rawfloat.Float](comp []byte) ([]F, error) {
	m, err := ParseHeader(comp)
	if err != nil {
		return nil, err
	}
	if m.Elem != elemOf[F]() || checkPlausible(m, len(comp)) != nil {
		return nil, ErrBadStream
	}
	L := m.BlockLen
	chain, err := stages.NewDecompress[F](stages.Config{BlockLen: L, HeaderBytes: m.HeaderBytes, Eps: m.Eps, EstWidth: chainEstWidth})
	if err != nil {
		return nil, err
	}
	st := stages.NewBlockState[F](L)
	src := comp[StreamHeaderSize:]
	out := make([]F, m.Elements)
	for lo := 0; lo < len(out); lo += L {
		v, n, err := flenc.Header(src, m.HeaderBytes)
		switch {
		case err != nil:
			return nil, err
		case v == flenc.VerbatimU32:
			n += L * rawfloat.Size[F]()
		case v <= flenc.MaxWidth:
			n = flenc.EncodedSize(uint(v), L, m.HeaderBytes)
		default:
			return nil, fmt.Errorf("%w: fixed length %d", ErrBadStream, v)
		}
		if n > len(src) {
			return nil, ErrBadStream
		}
		st.ResetForDecompress(src[:n])
		chain.RunAll(st)
		copy(out[lo:], st.Raw)
		src = src[n:]
	}
	return out, nil
}
