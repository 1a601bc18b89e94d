package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"ceresz/internal/flenc"
	"ceresz/internal/hostpool"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
)

// Float64 element support. The container's flags byte distinguishes the
// element type (0 = float32, 1 = float64); quantization codes and the
// fixed-length block format are identical, only the verbatim payloads and
// the reconstruction multiply differ. Several SDRBench archives (QMCPack
// among them) ship double-precision fields, so a usable reproduction needs
// this path even though the paper's evaluation runs on float32. The hot
// path mirrors the float32 one: a fused single-pass forward kernel, a
// fused decode loop, and pooled per-worker scratch for zero steady-state
// allocations.

const (
	elemF32 byte = 0
	elemF64 byte = 1
)

// Elem identifies a stream's element type.
type Elem byte

// Element types.
const (
	Float32 Elem = Elem(elemF32)
	Float64 Elem = Elem(elemF64)
)

func (e Elem) String() string {
	switch e {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("Elem(%d)", byte(e))
	}
}

// Size returns the element size in bytes.
func (e Elem) Size() int {
	if e == Float64 {
		return 8
	}
	return 4
}

// Compress64 appends the CereSZ stream for float64 data to dst.
func Compress64(dst []byte, data []float64, opts Options) ([]byte, *Stats, error) {
	stats := new(Stats)
	dst, err := Compress64Into(dst, data, opts, stats)
	if err != nil {
		return dst, nil, err
	}
	return dst, stats, nil
}

// Compress64Into is Compress64 writing its statistics into a
// caller-provided Stats; with Workers ≤ 1 and sufficient dst capacity it
// performs zero allocations in steady state.
func Compress64Into(dst []byte, data []float64, opts Options, stats *Stats) ([]byte, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return dst, err
	}
	minV, maxV := quant.Range64(data)
	eps, err := opts.Bound.Resolve(minV, maxV)
	if err != nil {
		return dst, err
	}
	return compressEps64(dst, data, eps, opts, stats)
}

// Compress64WithEps is Compress64 with a pre-resolved absolute bound.
func Compress64WithEps(dst []byte, data []float64, eps float64, opts Options) ([]byte, *Stats, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return dst, nil, err
	}
	if !(eps > 0) {
		return dst, nil, quant.ErrNonPositiveBound
	}
	stats := new(Stats)
	dst, err := compressEps64(dst, data, eps, opts, stats)
	if err != nil {
		return dst, nil, err
	}
	return dst, stats, nil
}

func compressEps64(dst []byte, data []float64, eps float64, opts Options, stats *Stats) ([]byte, error) {
	q, err := quant.MakeQuantizer(eps)
	if err != nil {
		return dst, err
	}
	L := opts.BlockLen
	nBlocks := (len(data) + L - 1) / L
	*stats = Stats{Elements: len(data), Blocks: nBlocks, Eps: eps}

	start := len(dst)
	dst = appendStreamHeader64(dst, opts.HeaderBytes, L, len(data), eps)
	if nBlocks == 0 {
		stats.CompressedBytes = len(dst) - start
		return dst, nil
	}

	workers := opts.Workers
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		enc := getEncoder64(L, opts.HeaderBytes, q)
		for b := 0; b < nBlocks; b++ {
			dst = enc.encode(dst, blockSlice64(data, b, L), stats)
		}
		putEncoder64(enc)
		stats.CompressedBytes = len(dst) - start
		return dst, nil
	}

	// Parallel path: same shard/stitch scheme as compressEps, shared host
	// pool and pooled per-shard buffers included.
	sp := getShards(workers)
	shards := *sp
	hostpool.Run(workers, nBlocks, func(k, lo, hi int) {
		telWorkers.Add(1)
		defer telWorkers.Add(-1)
		enc := getEncoder64(L, opts.HeaderBytes, q)
		sb := &shards[k]
		sb.stats = Stats{}
		sb.buf = slices.Grow(sb.buf[:0], (hi-lo)*(opts.HeaderBytes+8*L))
		for b := lo; b < hi; b++ {
			sb.buf = enc.encode(sb.buf, blockSlice64(data, b, L), &sb.stats)
		}
		putEncoder64(enc)
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
	return dst, nil
}

func appendStreamHeader64(dst []byte, headerBytes, blockLen, elements int, eps float64) []byte {
	var hdr [StreamHeaderSize]byte
	copy(hdr[0:4], Magic[:])
	hdr[4] = byte(headerBytes)
	hdr[5] = elemF64
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(blockLen))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(elements))
	binary.LittleEndian.PutUint64(hdr[16:24], math.Float64bits(eps))
	return append(dst, hdr[:]...)
}

func blockSlice64(data []float64, b, L int) []float64 {
	lo := b * L
	hi := lo + L
	if hi > len(data) {
		hi = len(data)
	}
	return data[lo:hi]
}

type blockEncoder64 struct {
	L       int
	hdr     int
	q       quant.Quantizer
	zeroT   float64 // zeroThreshold of q: blocks within it skip the kernel
	padded  []float64
	scaled  []float64
	codes   []int32
	scratch *flenc.Block
}

func newBlockEncoder64(L, headerBytes int, q quant.Quantizer) *blockEncoder64 {
	return &blockEncoder64{
		L:       L,
		hdr:     headerBytes,
		q:       q,
		zeroT:   zeroThreshold(&q, math.Nextafter),
		padded:  make([]float64, L),
		scaled:  make([]float64, L),
		codes:   make([]int32, L),
		scratch: flenc.NewBlock(L),
	}
}

var encoder64Pool sync.Pool

func getEncoder64(L, headerBytes int, q quant.Quantizer) *blockEncoder64 {
	e, _ := encoder64Pool.Get().(*blockEncoder64)
	if e == nil || e.L != L {
		return newBlockEncoder64(L, headerBytes, q)
	}
	e.hdr = headerBytes
	e.q = q
	e.zeroT = zeroThreshold(&q, math.Nextafter)
	return e
}

func putEncoder64(e *blockEncoder64) { encoder64Pool.Put(e) }

func (e *blockEncoder64) encode(dst []byte, block []float64, stats *Stats) []byte {
	src := block
	if len(block) < e.L {
		copy(e.padded, block)
		clear(e.padded[len(block):])
		src = e.padded
	}
	if useAVX2 {
		return e.encodeVector(dst, src, stats)
	}
	var w uint
	if !allWithin(src, e.zeroT) {
		var ok bool
		if w, ok = e.fusedForward(src); !ok {
			stats.VerbatimBlocks++
			return appendVerbatim64(dst, src, e.hdr)
		}
	}
	stats.WidthHistogram[w]++
	if w == 0 {
		stats.ZeroBlocks++
	}
	return flenc.AppendEncoded(dst, e.scratch.Abs[:e.L], e.scratch.Signs[:e.L/8], w, e.hdr)
}

// fusedForward is the float64 twin of blockEncoder.fusedForward: quantize,
// strictness check (through the float64 reconstruction — p·2ε can still
// land outside ε when ε is below half a ulp of the value), Lorenzo delta,
// sign split and width in one pass. Verbatim selection matches encodeRef
// for the same early-exit reasons as the float32 kernel.
func (e *blockEncoder64) fusedForward(src []float64) (w uint, ok bool) {
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
			// Product and sum round separately on every host, as in
			// quant.Quantize; so do the reconstruction and its difference.
			f := math.Floor(float64(x*recip) + 0.5)
			if !(f >= math.MinInt32 && f <= math.MaxInt32) {
				return 0, false
			}
			p := int32(f)
			rec := float64(float64(p) * twoE)
			if !(math.Abs(rec-x) <= eps) {
				return 0, false
			}
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

// encodeRef is the retained stage-by-stage float64 pipeline (Mul, Round,
// strictness sweep, lorenzo.Forward, flenc.EncodeBlockRef), kept as the
// differential-testing reference for the fused kernel.
func (e *blockEncoder64) encodeRef(dst []byte, src []float64, stats *Stats) []byte {
	e.q.Mul(e.scaled, src)
	if !quant.Round(e.codes, e.scaled) {
		stats.VerbatimBlocks++
		return appendVerbatim64(dst, src, e.hdr)
	}
	for i, p := range e.codes {
		rec := float64(float64(p) * e.q.TwoEps()) // rounded before the subtraction, as in fusedForward
		if !(math.Abs(rec-src[i]) <= e.q.Eps()) {
			stats.VerbatimBlocks++
			return appendVerbatim64(dst, src, e.hdr)
		}
	}
	lorenzo.Forward(e.codes, e.codes)
	var w uint
	dst, w = flenc.EncodeBlockRef(dst, e.codes, e.hdr, e.scratch)
	stats.WidthHistogram[w]++
	if w == 0 {
		stats.ZeroBlocks++
	}
	return dst
}

func appendVerbatim64(dst []byte, block []float64, headerBytes int) []byte {
	switch headerBytes {
	case flenc.HeaderU32:
		dst = append(dst, 0xFF, 0xFF, 0xFF, 0xFF)
	case flenc.HeaderU8:
		dst = append(dst, flenc.VerbatimU8)
	default:
		panic(fmt.Sprintf("core: unsupported header size %d", headerBytes))
	}
	return rawfloat.Append(dst, block)
}

// Decompress64 reconstructs float64 data from a CereSZ stream produced by
// Compress64. workers follows Options.Workers semantics (0/1 sequential,
// > 1 sharded over the host pool, negative = GOMAXPROCS). With workers 0/1
// and sufficient dst capacity it performs zero allocations in steady state.
func Decompress64(dst []float64, comp []byte, workers int) ([]float64, Meta, error) {
	m, err := ParseHeader(comp)
	if err != nil {
		return dst, m, err
	}
	if m.Elem != Float64 {
		return dst, m, fmt.Errorf("%w: stream holds %s elements, expected float64", ErrBadStream, m.Elem)
	}
	if err := checkPlausible(m, len(comp)); err != nil {
		return dst, m, err
	}
	body := comp[StreamHeaderSize:]
	nBlocks := m.Blocks()
	L := m.BlockLen

	op := getOffsets(nBlocks + 1)
	defer offsetsPool.Put(op)
	offsets := *op
	if err := scanOffsets(body, m, offsets, 8); err != nil {
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
		dec := getDecoder64(L, m.HeaderBytes, q)
		for b := 0; b < nBlocks; b++ {
			if err := dec.decode(outBlock64(out, b, L), body[offsets[b]:offsets[b+1]]); err != nil {
				putDecoder64(dec)
				return dst, m, fmt.Errorf("%w: block %d: %v", ErrBadStream, b, err)
			}
		}
		putDecoder64(dec)
		return dst, m, nil
	}
	sp := getShards(workers)
	shards := *sp
	hostpool.Run(workers, nBlocks, func(k, lo, hi int) {
		telWorkers.Add(1)
		defer telWorkers.Add(-1)
		shards[k].err = nil
		dec := getDecoder64(L, m.HeaderBytes, q)
		defer putDecoder64(dec)
		for b := lo; b < hi; b++ {
			if err := dec.decode(outBlock64(out, b, L), body[offsets[b]:offsets[b+1]]); err != nil {
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
	return dst, m, nil
}

// ElemOf returns the element type of a stream without fully parsing it.
func ElemOf(comp []byte) (Elem, error) {
	if len(comp) < StreamHeaderSize {
		return Float32, fmt.Errorf("%w: short stream", ErrBadStream)
	}
	switch comp[5] {
	case elemF32:
		return Float32, nil
	case elemF64:
		return Float64, nil
	default:
		return Float32, fmt.Errorf("%w: unknown element type %d", ErrBadStream, comp[5])
	}
}

type blockDecoder64 struct {
	L       int
	hdr     int
	q       quant.Quantizer
	full    []float64
	scratch *flenc.Block
}

var decoder64Pool sync.Pool

func getDecoder64(L, headerBytes int, q quant.Quantizer) *blockDecoder64 {
	d, _ := decoder64Pool.Get().(*blockDecoder64)
	if d == nil || d.L != L {
		d = &blockDecoder64{
			L:       L,
			full:    make([]float64, L),
			scratch: flenc.NewBlock(L),
		}
	}
	d.hdr = headerBytes
	d.q = q
	return d
}

func putDecoder64(d *blockDecoder64) { decoder64Pool.Put(d) }

// decode mirrors blockDecoder.decode: word-parallel unshuffle, then one
// fused sign-merge / prefix-sum / dequantize loop.
func (d *blockDecoder64) decode(out []float64, src []byte) error {
	v, n, err := flenc.Header(src, d.hdr)
	if err != nil {
		return err
	}
	if v == flenc.VerbatimU32 {
		if len(src) < n+8*d.L {
			return fmt.Errorf("truncated verbatim block")
		}
		rawfloat.Decode(out, src[n:])
		return nil
	}
	signs, planes, w, _, err := flenc.DecodeBody(src, d.L, d.hdr)
	if err != nil {
		return err
	}
	if w == 0 {
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
		twoE := d.q.TwoEps()
		var acc int32
		for i, u := range abs {
			acc += mergeSign(u, uint32(signs[i>>3]>>(i&7))&1)
			full[i] = float64(acc) * twoE
		}
	}
	if len(out) < d.L {
		copy(out, full[:len(out)])
	}
	return nil
}
