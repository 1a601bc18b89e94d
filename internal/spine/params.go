package spine

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"strconv"
)

// Elem is a wire element type. Its values are ceresz.Elem's.
type Elem byte

// The wire element types.
const (
	F32 Elem = iota
	F64
)

// Size returns the element's wire width in bytes.
func (e Elem) Size() int {
	if e == F64 {
		return 8
	}
	return 4
}

// String returns the element's elem= spelling.
func (e Elem) String() string {
	if e == F64 {
		return "f64"
	}
	return "f32"
}

// ParseElem reads an elem= value: f32 (also the empty value) or f64.
func ParseElem(s string) (Elem, error) {
	switch s {
	case "", "f32":
		return F32, nil
	case "f64":
		return F64, nil
	}
	return F32, fmt.Errorf("elem must be f32 or f64, got %q", s)
}

// ParseMode reads a mode= value: abs (also the empty value) or rel.
func ParseMode(s string) (abs bool, err error) {
	switch s {
	case "", "abs":
		return true, nil
	case "rel":
		return false, nil
	}
	return false, fmt.Errorf("mode must be abs or rel, got %q", s)
}

// maxBlockLen is the largest block length a CereSZ container records (a
// 16-bit field).
const maxBlockLen = math.MaxUint16

// CompressParams is what a /v1/compress query asks for.
type CompressParams struct {
	Elem Elem
	// Abs selects an absolute bound: Eps is ε. Otherwise Eps is the
	// value-range-relative λ, resolved per chunk.
	Abs bool
	// Eps is positive and finite.
	Eps float64
	// ChunkElems is the elements per frame.
	ChunkElems int
	// BlockLen is the CereSZ block length, 0 meaning the codec's default.
	BlockLen int
}

// ParseCompress reads a /v1/compress query: eps (required), mode, elem,
// chunk and block; chunkElems stands in for an absent chunk, and an absent
// block leaves the codec's default. It is the grammar's one reader;
// cereszd's own limits (its largest chunk) stay cereszd's to check.
func ParseCompress(q url.Values, chunkElems int) (CompressParams, error) {
	p := CompressParams{ChunkElems: chunkElems}
	epsStr := q.Get("eps")
	if epsStr == "" {
		return p, errors.New("missing required parameter eps")
	}
	eps, err := strconv.ParseFloat(epsStr, 64)
	// An infinite bound reaches no codec: it would fail there, as a 500.
	if err != nil || !(eps > 0) || math.IsInf(eps, 0) {
		return p, fmt.Errorf("eps must be a positive float, got %q", epsStr)
	}
	p.Eps = eps
	if p.Abs, err = ParseMode(q.Get("mode")); err != nil {
		return p, err
	}
	if p.Elem, err = ParseElem(q.Get("elem")); err != nil {
		return p, err
	}
	if s := q.Get("chunk"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return p, fmt.Errorf("chunk must be a positive integer, got %q", s)
		}
		p.ChunkElems = n
	}
	if s := q.Get("block"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 8 || n%8 != 0 {
			return p, fmt.Errorf("block must be a positive multiple of 8, got %q", s)
		}
		if n > maxBlockLen {
			return p, fmt.Errorf("block %d exceeds limit %d", n, maxBlockLen)
		}
		p.BlockLen = n
	}
	return p, nil
}
