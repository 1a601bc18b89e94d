package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"sync"

	"ceresz"
	"ceresz/internal/datasets"
	"ceresz/internal/quant"
)

// relLambda is the value-range-relative bound every workload uses: REL
// directly in the library workloads, ABS(relLambda·range) per window on
// the serving ones (one ε per request, so the server's per-chunk REL
// resolution never enters the comparison).
const relLambda = 1e-3

// windowStride spaces serving windows: window k starts at
// (k·windowStride) mod span, where span is the corpus length minus the
// window, rounded down to whole chunks. The stride is odd, so two windows
// start a whole number of chunks apart only if their indices differ by a
// multiple of the chunk length: no two windows of a run share a chunk,
// every fresh window misses the chunk cache on every chunk, and the
// windows are views, so they cost no memory. It is also large, so that
// consecutive windows land in different fields of the corpus.
const windowStride = 1000003

var hashSeed = maphash.MakeSeed()

// item is one array the code under test receives, with its bound.
// Exactly one of f32/f64 is set.
type item struct {
	id    int64
	f32   []float32
	f64   []float64
	bound ceresz.Bound

	mu   sync.Mutex
	refs [2]*reference // indexed by refKind
}

func (it *item) elems() int {
	if it.f64 != nil {
		return len(it.f64)
	}
	return len(it.f32)
}

func (it *item) rawBytes() int64 {
	if it.f64 != nil {
		return int64(8 * len(it.f64))
	}
	return int64(4 * len(it.f32))
}

// refKind selects the library output an operation is checked against.
type refKind int

const (
	refOneShot refKind = iota // one CereSZ container (ceresz.Compress)
	refFramed                 // CSZF frames from StreamWriter at the workload's chunking
)

// reference is what the library itself produces for an item: digests of
// the compressed bytes and of the decoded values, and the decode's error
// against the raw input in units of each chunk's resolved ε.
type reference struct {
	compHash   uint64
	compLen    int
	decHash    uint64
	errOverEps float64
}

// decoded is a decompress result of either element type.
type decoded struct {
	f32 []float32
	f64 []float64
}

func hashF32(v []float32) uint64 {
	h := uint64(len(v))
	for _, x := range v {
		h = (h ^ uint64(math.Float32bits(x))) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

func hashF64(v []float64) uint64 {
	h := uint64(len(v))
	for _, x := range v {
		h = (h ^ math.Float64bits(x)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// hash digests the element type it carries: a reused decoded value may
// hold a stale empty slice of the other type.
func (d decoded) hash(it *item) uint64 {
	if it.f64 != nil {
		return hashF64(d.f64)
	}
	return hashF32(d.f32)
}

// ref returns the library reference for it, computing it on first use.
// chunk is the framing chunk in elements (ignored for refOneShot).
func (it *item) ref(kind refKind, chunk int) (*reference, error) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if r := it.refs[kind]; r != nil {
		return r, nil
	}
	var r *reference
	var err error
	if kind == refOneShot {
		r, err = it.oneShotRef()
	} else {
		r, err = it.framedRef(chunk)
	}
	if err != nil {
		return nil, fmt.Errorf("library reference for item %d: %w", it.id, err)
	}
	it.refs[kind] = r
	return r, nil
}

func (it *item) oneShotRef() (*reference, error) {
	var comp []byte
	var stats *ceresz.Stats
	var err error
	if it.f64 != nil {
		comp, stats, err = ceresz.Compress64(nil, it.f64, it.bound, ceresz.Options{})
	} else {
		comp, stats, err = ceresz.Compress(nil, it.f32, it.bound, ceresz.Options{})
	}
	if err != nil {
		return nil, err
	}
	r := &reference{compHash: maphash.Bytes(hashSeed, comp), compLen: len(comp)}
	if it.f64 != nil {
		dec, err := ceresz.Decompress64(nil, comp)
		if err != nil {
			return nil, err
		}
		r.decHash = hashF64(dec)
		r.errOverEps = maxErr64(it.f64, dec) / stats.Eps
	} else {
		dec, err := ceresz.Decompress(nil, comp)
		if err != nil {
			return nil, err
		}
		r.decHash = hashF32(dec)
		r.errOverEps = maxErr32(it.f32, dec) / stats.Eps
	}
	return r, nil
}

func (it *item) framedRef(chunk int) (*reference, error) {
	var buf bytes.Buffer
	sw := ceresz.NewStreamWriter(&buf, it.bound, ceresz.Options{})
	n := it.elems()
	var eps []float64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		var st *ceresz.Stats
		var err error
		if it.f64 != nil {
			st, err = sw.WriteChunk64(it.f64[lo:hi])
		} else {
			st, err = sw.WriteChunk(it.f32[lo:hi])
		}
		if err != nil {
			return nil, err
		}
		eps = append(eps, st.Eps)
	}
	comp := buf.Bytes()
	r := &reference{compHash: maphash.Bytes(hashSeed, comp), compLen: len(comp)}
	sr := ceresz.NewStreamReader(bytes.NewReader(comp))
	var dec decoded
	for c := 0; ; c++ {
		lo := len(dec.f32) + len(dec.f64)
		var err error
		if it.f64 != nil {
			dec.f64, err = sr.Next64Into(dec.f64)
		} else {
			dec.f32, err = sr.NextInto(dec.f32)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		var e float64
		if it.f64 != nil {
			e = maxErr64(it.f64[lo:len(dec.f64)], dec.f64[lo:])
		} else {
			e = maxErr32(it.f32[lo:len(dec.f32)], dec.f32[lo:])
		}
		r.errOverEps = math.Max(r.errOverEps, e/eps[c])
	}
	if len(dec.f32)+len(dec.f64) != n {
		return nil, fmt.Errorf("library decoded %d of %d elements", len(dec.f32)+len(dec.f64), n)
	}
	r.decHash = dec.hash(it)
	return r, nil
}

func maxErr32(a, b []float32) float64 {
	var m float64
	for i, v := range a {
		m = math.Max(m, math.Abs(float64(v)-float64(b[i])))
	}
	return m
}

func maxErr64(a, b []float64) float64 {
	var m float64
	for i, v := range a {
		m = math.Max(m, math.Abs(v-b[i]))
	}
	return m
}

// field generates one field of a synthetic SDRBench dataset.
func field(dataset string, scale datasets.Scale, idx int, seed int64) ([]float32, error) {
	ds, err := datasets.ByName(dataset, scale)
	if err != nil {
		return nil, err
	}
	if idx >= len(ds.Fields) {
		return nil, fmt.Errorf("%s has %d fields at scale %v, want index %d", dataset, len(ds.Fields), scale, idx)
	}
	return ds.Fields[idx].Data(seed), nil
}

// concatFields concatenates the given fields of a dataset.
func concatFields(dataset string, scale datasets.Scale, seed int64, idx ...int) ([]float32, error) {
	var out []float32
	for _, i := range idx {
		f, err := field(dataset, scale, i, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
	return out, nil
}

func widen(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func narrow(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// window returns serving window k of w elements: a view into corpus (no
// copy) with ε = relLambda · the window's own value range. Big windows
// pass shift = chunk/2, which keeps them off every small window's chunk
// boundaries as long as indices stay below chunk/2.
func window(corpus []float32, k int64, w, chunk, shift int) *item {
	span := int64((len(corpus) - w - shift) / chunk * chunk)
	off := int(k*windowStride%span) + shift
	v := corpus[off : off+w]
	lo, hi := quant.Range(v)
	return &item{id: k, f32: v, bound: ceresz.ABS(relLambda * (hi - lo))}
}
