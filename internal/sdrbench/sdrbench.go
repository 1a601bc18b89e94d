// Package sdrbench reads and writes the raw binary field files used by the
// SDRBench archives the paper evaluates (little-endian float32/float64
// arrays with out-of-band dimensions, conventionally named like
// CLDHGH_1_1800_3600.f32). When the real archives are available this
// package feeds them to the compressors; otherwise internal/datasets
// synthesizes stand-ins.
package sdrbench

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"ceresz/internal/lorenzo"
	"ceresz/internal/rawfloat"
)

// Field is one on-disk field.
type Field struct {
	// Path is the file location.
	Path string
	// Name is the field name parsed from the file name.
	Name string
	// Dims is the grid, parsed from the file name when it follows the
	// name_[dims...].f32 convention, else 1D.
	Dims lorenzo.Dims
	// Float64 marks a double-precision file (.f64).
	Float64 bool
}

// dimsPattern matches trailing _d1_d2[_d3] before the extension.
var dimsPattern = regexp.MustCompile(`^(.*?)_(\d+)(?:_(\d+))?(?:_(\d+))?$`)

// ParseName extracts the field name and dims from an SDRBench-style file
// name such as "CLDHGH_1_1800_3600.f32" (dims are listed slowest-first in
// the convention; we return them with Nx fastest).
func ParseName(path string) (name string, d lorenzo.Dims, isF64 bool, err error) {
	base := filepath.Base(path)
	ext := strings.ToLower(filepath.Ext(base))
	switch ext {
	case ".f32", ".dat", ".bin":
	case ".f64", ".d64":
		isF64 = true
	default:
		return "", d, false, fmt.Errorf("sdrbench: unrecognized extension %q", ext)
	}
	stem := strings.TrimSuffix(base, filepath.Ext(base))
	m := dimsPattern.FindStringSubmatch(stem)
	if m == nil {
		return stem, lorenzo.Dims{}, isF64, nil
	}
	var sizes []int
	for _, g := range m[2:] {
		if g == "" {
			continue
		}
		v, err := strconv.Atoi(g)
		if err != nil || v <= 0 {
			return stem, lorenzo.Dims{}, isF64, nil
		}
		sizes = append(sizes, v)
	}
	// Drop a leading "1" (the archives often prefix a unit dimension).
	if len(sizes) > 1 && sizes[0] == 1 {
		sizes = sizes[1:]
	}
	switch len(sizes) {
	case 1:
		d = lorenzo.Dims1(sizes[0])
	case 2:
		// Slowest-first in the name: name_NY_NX.
		d = lorenzo.Dims2(sizes[1], sizes[0])
	case 3:
		d = lorenzo.Dims3(sizes[2], sizes[1], sizes[0])
	default:
		return stem, lorenzo.Dims{}, isF64, nil
	}
	return m[1], d, isF64, nil
}

// readFile loads a raw little-endian file of F.
func readFile[F rawfloat.Float](path, kind string) ([]F, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%rawfloat.Size[F]() != 0 {
		return nil, fmt.Errorf("sdrbench: %s: %d bytes is not a %s array", path, len(raw), kind)
	}
	out := make([]F, len(raw)/rawfloat.Size[F]())
	rawfloat.Decode(out, raw)
	return out, nil
}

// ReadF32 loads a raw little-endian float32 file.
func ReadF32(path string) ([]float32, error) { return readFile[float32](path, "float32") }

// ReadF64 loads a raw little-endian float64 file.
func ReadF64(path string) ([]float64, error) { return readFile[float64](path, "float64") }

// WriteF32 writes a raw little-endian float32 file.
func WriteF32(path string, data []float32) error {
	return os.WriteFile(path, rawfloat.Bytes(nil, data), 0o644)
}

// WriteF64 writes a raw little-endian float64 file.
func WriteF64(path string, data []float64) error {
	return os.WriteFile(path, rawfloat.Bytes(nil, data), 0o644)
}

// load reads a field file of F and validates its size against the dims
// encoded in its name (when present). The returned Field's Dims falls back
// to 1D of the element count when the name carries no dims.
func load[F rawfloat.Float](path, kind string) (Field, []F, error) {
	name, d, isF64, err := ParseName(path)
	if err != nil {
		return Field{}, nil, err
	}
	switch wantF64 := rawfloat.Size[F]() == 8; {
	case isF64 && !wantF64:
		return Field{}, nil, fmt.Errorf("sdrbench: %s is float64; use Load64", path)
	case wantF64 && !isF64:
		return Field{}, nil, fmt.Errorf("sdrbench: %s is float32; use Load", path)
	}
	data, err := readFile[F](path, kind)
	if err != nil {
		return Field{}, nil, err
	}
	f := Field{Path: path, Name: name, Dims: d, Float64: isF64}
	if f.Dims.Len() == 0 || f.Dims == (lorenzo.Dims{}) {
		f.Dims = lorenzo.Dims1(len(data))
	} else if f.Dims.Len() != len(data) {
		return Field{}, nil, fmt.Errorf("sdrbench: %s: name says %d elements, file has %d",
			path, f.Dims.Len(), len(data))
	}
	return f, data, nil
}

// Load reads a float32 field file; see load.
func Load(path string) (Field, []float32, error) { return load[float32](path, "float32") }

// Load64 reads a float64 field file.
func Load64(path string) (Field, []float64, error) { return load[float64](path, "float64") }

// Scan lists the field files under dir (non-recursive), sorted by name.
func Scan(dir string) ([]Field, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Field
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, d, isF64, err := ParseName(e.Name())
		if err != nil {
			continue // not a field file
		}
		out = append(out, Field{
			Path:    filepath.Join(dir, e.Name()),
			Name:    name,
			Dims:    d,
			Float64: isF64,
		})
	}
	return out, nil
}
