package cszf

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ceresz/internal/lorenzo"
)

// A /v1/bundle request body is a manifest section — u32 little-endian
// length, then the manifest, a JSON array of FieldSpec — followed by each
// field's raw little-endian elements, back to back in manifest order.

// FieldSpec is one field of a /v1/bundle request manifest.
type FieldSpec struct {
	Name string  `json:"name"`
	Dims [3]int  `json:"dims"` // zeroes normalize to 1; Nx fastest
	Elem string  `json:"elem"` // "f32" (default) or "f64"
	Mode string  `json:"mode"` // "abs" (default) or "rel"
	Eps  float64 `json:"eps"`
}

// Grid is the field's grid, with zero dims normalized to 1 so [n,0,0]
// means 1-D.
func (s FieldSpec) Grid() lorenzo.Dims {
	d := s.Dims
	for i := range d {
		if d[i] == 0 {
			d[i] = 1
		}
	}
	return lorenzo.Dims{Nx: d[0], Ny: d[1], Nz: d[2]}
}

// MaxManifestBytes caps a manifest's JSON.
const MaxManifestBytes = 1 << 20

// AppendManifest appends the manifest section of a request for specs.
func AppendManifest(dst []byte, specs []FieldSpec) ([]byte, error) {
	if len(specs) == 0 {
		return dst, errors.New("manifest has no fields")
	}
	js, err := json.Marshal(specs)
	if err != nil {
		return dst, fmt.Errorf("encoding manifest: %w", err)
	}
	if len(js) > MaxManifestBytes {
		return dst, fmt.Errorf("manifest of %d bytes exceeds %d", len(js), MaxManifestBytes)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(js)))
	return append(dst, js...), nil
}

// ReadManifest reads a request's manifest section from r, leaving r at the
// first field's elements.
func ReadManifest(r io.Reader) ([]FieldSpec, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("reading manifest length: %v", err)
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n == 0 || n > MaxManifestBytes {
		return nil, fmt.Errorf("manifest length %d outside (0, %d]", n, MaxManifestBytes)
	}
	js := make([]byte, n)
	if _, err := io.ReadFull(r, js); err != nil {
		return nil, fmt.Errorf("reading %d-byte manifest: %v", n, err)
	}
	var specs []FieldSpec
	if err := json.Unmarshal(js, &specs); err != nil {
		return nil, fmt.Errorf("decoding manifest: %v", err)
	}
	if len(specs) == 0 {
		return nil, errors.New("manifest has no fields")
	}
	return specs, nil
}
