package core

import (
	"fmt"

	"ceresz/internal/rawfloat"
)

// Float64 element support. The container's flags byte distinguishes the
// element type (0 = float32, 1 = float64); quantization codes and the
// fixed-length block format are identical, only the verbatim payloads and
// the reconstruction multiply differ. Several SDRBench archives (QMCPack
// among them) ship double-precision fields, so a usable reproduction needs
// this path even though the paper's evaluation runs on float32. Both
// element types run the same generic code (core.go); only the assembly
// kernels are written per type.

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

// elemOf returns the Elem of F.
func elemOf[F rawfloat.Float]() Elem {
	if rawfloat.Size[F]() == 8 {
		return Float64
	}
	return Float32
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
	return compressBound(dst, data, opts, stats)
}

// Compress64WithEps is Compress64 with a pre-resolved absolute bound.
func Compress64WithEps(dst []byte, data []float64, eps float64, opts Options) ([]byte, *Stats, error) {
	stats := new(Stats)
	dst, err := compressWithEps(dst, data, eps, opts, stats)
	if err != nil {
		return dst, nil, err
	}
	return dst, stats, nil
}

// Decompress64 reconstructs float64 data from a CereSZ stream produced by
// Compress64. workers follows Options.Workers semantics (0/1 sequential,
// > 1 sharded over the host pool, negative = GOMAXPROCS). With workers 0/1
// and sufficient dst capacity it performs zero allocations in steady state.
// On an error dst is returned as it was passed.
func Decompress64(dst []float64, comp []byte, workers int) ([]float64, Meta, error) {
	return decompress(dst, comp, workers)
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
