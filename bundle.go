package ceresz

import (
	"fmt"
	"sort"

	"ceresz/internal/cszf"
	"ceresz/internal/lorenzo"
	"ceresz/internal/rawfloat"
	"ceresz/internal/telemetry"
)

// Bundle instruments (Default registry; active after EnableTelemetry).
var (
	telBundleAdd  = telemetry.T("bundle.add_field")
	telBundleRead = telemetry.T("bundle.read_field")
)

// Bundles: a whole multi-field dataset (Table 4 datasets have up to 79
// fields) compressed into one self-describing file with an index, so any
// field can be decompressed without touching the others. The CSZB layout
// is internal/cszf's; each member stream is an ordinary container
// (Compress/Compress64), decodable on its own.

// Dims describes a field's grid in bundle metadata (row-major, Nx fastest;
// unused dims are 1).
type Dims = lorenzo.Dims

// Dims1, Dims2 and Dims3 build grid descriptors.
var (
	Dims1 = lorenzo.Dims1
	Dims2 = lorenzo.Dims2
	Dims3 = lorenzo.Dims3
)

// BundleField describes one indexed member.
type BundleField struct {
	// Name is the field's identifier within the bundle.
	Name string
	// Dims is the field's grid.
	Dims Dims
	// Elem is the element type.
	Elem Elem
	// CompressedBytes is the member stream's size.
	CompressedBytes int
	// Eps is the member's resolved absolute bound.
	Eps float64
}

// BundleWriter accumulates compressed fields and assembles the bundle.
// Member streams are compressed back to back into one contiguous arena —
// one growing buffer for the whole bundle instead of a fresh slice per
// field, so adding N fields costs O(log) buffer growths rather than N
// allocations sized to each stream. Not safe for concurrent use.
type BundleWriter struct {
	members []cszf.Member // Stream is set by Bytes: the arena moves as it grows
	ends    []int         // per-member end offset into arena
	arena   []byte        // concatenated member streams (the future body)
	stats   Stats         // scratch for the *Into compression calls
	names   map[string]bool
}

// NewBundleWriter returns an empty bundle writer.
func NewBundleWriter() *BundleWriter {
	return &BundleWriter{names: map[string]bool{}}
}

// AddField compresses a float32 field under bound and indexes it.
func (bw *BundleWriter) AddField(name string, dims Dims, data []float32, bound Bound, opts Options) (*Stats, error) {
	return addField(bw, name, dims, data, bound, opts, CompressInto)
}

// AddField64 compresses a float64 field under bound and indexes it.
func (bw *BundleWriter) AddField64(name string, dims Dims, data []float64, bound Bound, opts Options) (*Stats, error) {
	return addField(bw, name, dims, data, bound, opts, Compress64Into)
}

func addField[F rawfloat.Float](bw *BundleWriter, name string, dims Dims, data []F, bound Bound, opts Options,
	compress func([]byte, []F, Bound, Options, *Stats) ([]byte, error)) (*Stats, error) {
	defer telBundleAdd.Start().End()
	if err := bw.checkName(name); err != nil {
		return nil, err
	}
	if err := dims.Validate(len(data)); err != nil {
		return nil, err
	}
	arena, err := compress(bw.arena, data, bound, opts, &bw.stats)
	if err != nil {
		return nil, err
	}
	bw.arena = arena
	bw.names[name] = true
	bw.members = append(bw.members, cszf.Member{Name: name, Dims: dims})
	bw.ends = append(bw.ends, len(arena))
	out := bw.stats
	return &out, nil
}

func (bw *BundleWriter) checkName(name string) error {
	if name == "" {
		return fmt.Errorf("ceresz: empty field name")
	}
	if len(name) > cszf.MaxNameLen {
		return fmt.Errorf("ceresz: field name %q too long", name[:32])
	}
	if bw.names[name] {
		return fmt.Errorf("ceresz: duplicate field %q", name)
	}
	return nil
}

// Bytes assembles the bundle in one allocation: the index is computable
// from the member table alone and the body is the arena.
func (bw *BundleWriter) Bytes() ([]byte, error) {
	start := 0
	for i, end := range bw.ends {
		bw.members[i].Stream = bw.arena[start:end]
		start = end
	}
	return cszf.AppendBundle(nil, bw.members)
}

// BundleReader provides random access to a bundle's members.
type BundleReader struct {
	b *cszf.Bundle
}

// OpenBundle parses a bundle's index. The data is not copied.
func OpenBundle(b []byte) (*BundleReader, error) {
	return OpenBundleLimited(b, 0, 0)
}

// OpenBundleLimited is OpenBundle with decode limits for untrusted input:
// maxFieldBytes caps any member stream's compressed size and
// maxFieldElements caps any member's declared element count (0 leaves the
// respective limit off). Violations surface as ErrFrameTooLarge during
// index validation, before any member is decompressed; truncation surfaces
// as ErrTruncated.
func OpenBundleLimited(b []byte, maxFieldBytes, maxFieldElements int) (*BundleReader, error) {
	bd, err := cszf.ParseBundle(b, cszf.Limits{MaxFrameBytes: maxFieldBytes, MaxElements: maxFieldElements})
	if err != nil {
		return nil, err
	}
	return &BundleReader{b: bd}, nil
}

// field describes member m.
func field(m cszf.Member) BundleField {
	return BundleField{Name: m.Name, Dims: m.Dims, Elem: m.Meta.Elem, CompressedBytes: len(m.Stream), Eps: m.Meta.Eps}
}

// Fields lists the members in index order.
func (br *BundleReader) Fields() []BundleField {
	out := make([]BundleField, len(br.b.Members))
	for i, m := range br.b.Members {
		out[i] = field(m)
	}
	return out
}

// Names lists the member names, sorted.
func (br *BundleReader) Names() []string {
	out := make([]string, len(br.b.Members))
	for i, m := range br.b.Members {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// member returns the named member's raw stream.
func (br *BundleReader) member(name string) ([]byte, BundleField, error) {
	i, ok := br.b.Lookup(name)
	if !ok {
		return nil, BundleField{}, fmt.Errorf("ceresz: bundle has no field %q (have %v)", name, br.Names())
	}
	m := br.b.Members[i]
	return m.Stream, field(m), nil
}

// ReadField decompresses a float32 member.
func (br *BundleReader) ReadField(name string) ([]float32, BundleField, error) {
	defer telBundleRead.Start().End()
	stream, f, err := br.member(name)
	if err != nil {
		return nil, f, err
	}
	if f.Elem != Float32 {
		return nil, f, fmt.Errorf("ceresz: field %q holds %s; use ReadField64", name, f.Elem)
	}
	out, err := Decompress(nil, stream)
	return out, f, err
}

// ReadField64 decompresses a float64 member.
func (br *BundleReader) ReadField64(name string) ([]float64, BundleField, error) {
	defer telBundleRead.Start().End()
	stream, f, err := br.member(name)
	if err != nil {
		return nil, f, err
	}
	if f.Elem != Float64 {
		return nil, f, fmt.Errorf("ceresz: field %q holds %s; use ReadField", name, f.Elem)
	}
	out, err := Decompress64(nil, stream)
	return out, f, err
}
