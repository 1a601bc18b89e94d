package cszf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"ceresz/internal/core"
	"ceresz/internal/lorenzo"
)

// Bundle layout: a whole multi-field dataset in one self-describing file
// with an index, so any field can be decoded without touching the others.
//
//	offset size  field
//	0      4     magic "CSZB"
//	4      4     version (1) + field count packed as u8 version, u24 count
//	8      …     index: per field u16 nameLen, name bytes, u32 Nx, u32 Ny,
//	             u32 Nz, u64 stream offset (from body start), u64 length
//	…      …     body: the member streams back to back
//
// Each member stream is an ordinary CereSZ container, so a member extracted
// by offset is decodable on its own.

var bundleMagic = [4]byte{'C', 'S', 'Z', 'B'}

const bundleVersion = 1

// MaxNameLen is the longest member name the index can record.
const MaxNameLen = math.MaxUint16

// maxMembers is the largest field count the index's u24 can record.
const maxMembers = 1<<24 - 1

// entryBytes is an index entry's size without its name: u16 name length,
// three u32 dims, u64 offset and u64 length.
const entryBytes = 2 + 12 + 16

// Member is one field of a bundle.
type Member struct {
	Name string
	Dims lorenzo.Dims
	// Stream is the member's CereSZ container, a view of the bytes it was
	// parsed from or is to be written from.
	Stream []byte
	// Meta is Stream's container header, filled in by ParseBundle.
	Meta core.Meta
}

// AppendBundle appends the bundle of members, in order, to dst.
func AppendBundle(dst []byte, members []Member) ([]byte, error) {
	if len(members) == 0 {
		return dst, errors.New("ceresz: empty bundle")
	}
	if len(members) > maxMembers {
		return dst, fmt.Errorf("ceresz: too many fields (%d)", len(members))
	}
	size := 8
	for _, m := range members {
		if len(m.Name) > MaxNameLen {
			return dst, fmt.Errorf("ceresz: field name %q too long", m.Name[:32])
		}
		size += entryBytes + len(m.Name) + len(m.Stream)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, bundleMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, bundleVersion|uint32(len(members))<<8)
	var off uint64
	for _, m := range members {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Name)))
		dst = append(dst, m.Name...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Dims.Nx))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Dims.Ny))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Dims.Nz))
		dst = binary.LittleEndian.AppendUint64(dst, off)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(m.Stream)))
		off += uint64(len(m.Stream))
	}
	for _, m := range members {
		dst = append(dst, m.Stream...)
	}
	return dst, nil
}

// Bundle is a parsed bundle: its members in index order.
type Bundle struct {
	Members []Member
	byName  map[string]int
}

// Lookup returns the index of the member called name.
func (b *Bundle) Lookup(name string) (int, bool) {
	i, ok := b.byName[name]
	return i, ok
}

// ParseBundle parses b's index and validates every member before any is
// decoded: its stream lies inside the body and is not empty, its container
// header parses and is plausible for the stream's length, its element count
// matches its dims, and both hold to lim (MaxFrameBytes caps a member's
// stream, MaxElements its element count). A cut-short input is
// ErrTruncated, a cap ErrFrameTooLarge. The data is not copied.
func ParseBundle(b []byte, lim Limits) (*Bundle, error) {
	if len(b) < 8 || [4]byte(b[0:4]) != bundleMagic {
		return nil, errors.New("ceresz: not a bundle")
	}
	vc := binary.LittleEndian.Uint32(b[4:])
	if v := vc & 0xFF; v != bundleVersion {
		return nil, fmt.Errorf("ceresz: unsupported bundle version %d", v)
	}
	count := int(vc >> 8)
	// A count the remaining bytes cannot possibly index is hostile or
	// corrupt; reject it before sizing anything by it.
	if count*entryBytes > len(b)-8 {
		return nil, fmt.Errorf("%w: bundle declares %d fields, %d bytes cannot index them",
			ErrTruncated, count, len(b))
	}
	bd := &Bundle{Members: make([]Member, count), byName: make(map[string]int, count)}
	spans := make([][2]uint64, count) // offset, length
	pos := 8
	for i := range bd.Members {
		if len(b)-pos < 2 {
			return nil, fmt.Errorf("%w: bundle index at %d", ErrTruncated, pos)
		}
		nameLen := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if len(b)-pos < nameLen+entryBytes-2 {
			return nil, fmt.Errorf("%w: bundle index at %d", ErrTruncated, pos)
		}
		m := &bd.Members[i]
		m.Name = string(b[pos : pos+nameLen])
		pos += nameLen
		m.Dims = lorenzo.Dims{
			Nx: int(binary.LittleEndian.Uint32(b[pos:])),
			Ny: int(binary.LittleEndian.Uint32(b[pos+4:])),
			Nz: int(binary.LittleEndian.Uint32(b[pos+8:])),
		}
		spans[i] = [2]uint64{binary.LittleEndian.Uint64(b[pos+12:]), binary.LittleEndian.Uint64(b[pos+20:])}
		pos += 28
		if _, dup := bd.byName[m.Name]; dup {
			return nil, fmt.Errorf("ceresz: duplicate bundle field %q", m.Name)
		}
		bd.byName[m.Name] = i
	}
	body := b[pos:]
	for i, sp := range spans {
		m := &bd.Members[i]
		off, n := sp[0], sp[1]
		if end := off + n; end < off || end > uint64(len(body)) || n == 0 {
			return nil, fmt.Errorf("%w: bundle member %q overruns body", ErrTruncated, m.Name)
		}
		if lim.MaxFrameBytes > 0 && n > uint64(lim.MaxFrameBytes) {
			return nil, fmt.Errorf("%w: bundle member %q is %d bytes, cap is %d",
				ErrFrameTooLarge, m.Name, n, lim.MaxFrameBytes)
		}
		m.Stream = body[off : off+n]
		var err error
		if m.Meta, err = inspect(m.Stream, lim.MaxElements); err != nil {
			return nil, fmt.Errorf("ceresz: bundle member %q: %w", m.Name, err)
		}
		if m.Dims.Len() != m.Meta.Elements {
			return nil, fmt.Errorf("ceresz: bundle member %q: dims say %d elements, stream has %d",
				m.Name, m.Dims.Len(), m.Meta.Elements)
		}
	}
	return bd, nil
}
