// Package rawfloat owns the mapping between float slices and the raw-float
// wire format: consecutive little-endian IEEE-754 words, which is what
// cereszd accepts on /v1/compress, returns from /v1/decompress, and what
// SDRBench field files hold.
//
// On a little-endian host that format is the in-memory layout of the
// slice, so native.go views a float slice as its bytes instead of
// converting it: Bytes returns the slice's own memory and ReadFull reads
// straight into it. The view only ever goes from floats to bytes, never
// from bytes to floats, so alignment is not in question. On big-endian
// targets and under -tags purego, portable.go runs the element loops in
// this file instead; they are also the oracle the tests hold the views
// to. The choice is made by build constraint alone.
//
// The results of Bytes and ReadFull alias either the floats or the scratch
// argument, depending on the build. Callers read them, never write them,
// and hand them back as the next call's scratch.
package rawfloat

import (
	"encoding/binary"
	"math"
)

// Float is the element types the wire format carries.
type Float interface{ float32 | float64 }

// Size returns the wire width of one F in bytes.
func Size[F Float]() int {
	var z F
	if _, ok := any(z).(float64); ok {
		return 8
	}
	return 4
}

// encode writes the wire image of f into dst[:len(f)*size], element by
// element.
func encode[F Float](dst []byte, f []F) {
	switch f := any(f).(type) {
	case []float32:
		for i, v := range f {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range f {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	}
}

// decode fills dst from the wire image in src[:len(dst)*size], element by
// element.
func decode[F Float](dst []F, src []byte) {
	switch dst := any(dst).(type) {
	case []float32:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}
