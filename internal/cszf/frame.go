// Package cszf is the one definition of the containers above the block
// codec: the CSZF frame that carries one CereSZ stream (internal/core) per
// chunk, the CSZB bundle that indexes a dataset's fields, and the manifest
// of a /v1/bundle request. The library's StreamWriter, StreamReader and
// bundles, cereszd, cereszproxy and the Go client all write and read those
// bytes here; each keeps only its policy, which is the Limits it passes.
//
// Frame layout: 4-byte magic "CSZF", uint32 little-endian payload length,
// payload (one CereSZ container).
package cszf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"ceresz/internal/core"
)

var frameMagic = [4]byte{'C', 'S', 'Z', 'F'}

// HeaderSize is a frame's overhead in bytes.
const HeaderSize = 8

// MaxPayload is the format's cap on a frame payload's length, exclusive.
const MaxPayload = 1 << 31

// readStep caps how much of a frame body Reader allocates ahead of the bytes
// actually arriving, so a hostile length field cannot drive a huge make
// before the reader discovers the body is absent.
const readStep = 1 << 20

// ErrTruncated reports input that ends mid-frame or mid-index: the length
// fields promise more bytes than the source delivers.
var ErrTruncated = errors.New("ceresz: truncated input")

// ErrFrameTooLarge reports a frame, element count or bundle member that
// exceeds the reader's Limits or the format's hard cap.
var ErrFrameTooLarge = errors.New("ceresz: frame exceeds limit")

// Limits is what a reader of untrusted bytes lets one frame or bundle member
// cost before anything is decoded. A zero field leaves its cap off.
type Limits struct {
	// MaxFrameBytes caps a frame payload's (or bundle member's) length.
	MaxFrameBytes int
	// MaxElements caps the elements one container header may declare. When
	// it is set, frame readers parse each payload's container header and
	// hold it to what the payload's length can carry; bundle members are
	// always parsed and held so.
	MaxElements int
}

// AppendHeader appends the header of a frame whose payload is payloadLen
// bytes. A writer that does not know the length yet appends
// AppendHeader(dst, 0), then the payload, then calls Seal.
func AppendHeader(dst []byte, payloadLen int) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, frameMagic[:]...), uint32(payloadLen))
}

// Seal writes into frame's header the length of the payload that follows
// it, so header and payload can leave in one write.
func Seal(frame []byte) error {
	n := len(frame) - HeaderSize
	if n >= MaxPayload {
		return fmt.Errorf("ceresz: chunk payload %d exceeds frame limit", n)
	}
	binary.LittleEndian.PutUint32(frame[4:], uint32(n))
	return nil
}

// payloadLen reads a frame header: the payload length it declares, held to
// the format's cap and lim.
func (lim Limits) payloadLen(hdr []byte) (int, error) {
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, fmt.Errorf("%w: bad frame magic %q", core.ErrBadStream, hdr[:4])
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n >= MaxPayload {
		return 0, fmt.Errorf("%w: frame length %d exceeds format cap", ErrFrameTooLarge, n)
	}
	if lim.MaxFrameBytes > 0 && n > lim.MaxFrameBytes {
		return 0, fmt.Errorf("%w: frame length %d exceeds configured cap %d", ErrFrameTooLarge, n, lim.MaxFrameBytes)
	}
	return n, nil
}

// checkPayload holds a frame payload to lim.MaxElements, when it is set.
func (lim Limits) checkPayload(p []byte) error {
	if lim.MaxElements <= 0 {
		return nil
	}
	_, err := inspect(p, lim.MaxElements)
	return err
}

// inspect parses a container's header and holds it to maxElements (0 = no
// cap) and to what the container's own length can carry, so an untrusted
// header cannot drive a decode-sized make.
func inspect(p []byte, maxElements int) (core.Meta, error) {
	m, err := core.ParseHeader(p)
	if err != nil {
		return m, err
	}
	if maxElements > 0 && m.Elements > maxElements {
		return m, fmt.Errorf("%w: container declares %d elements, cap is %d", ErrFrameTooLarge, m.Elements, maxElements)
	}
	if len(p) < m.MinStreamBytes() {
		return m, fmt.Errorf("%w: container declares %d elements, %d bytes cannot hold them", ErrTruncated, m.Elements, len(p))
	}
	return m, nil
}

// Cut splits the first frame off b under lim: its payload and the bytes
// after the frame, both views of b. An empty b returns io.EOF; a b that ends
// inside a frame, ErrTruncated.
func Cut(b []byte, lim Limits) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, io.EOF
	}
	if len(b) < HeaderSize {
		return nil, nil, fmt.Errorf("%w: reading frame header: %d of %d bytes", ErrTruncated, len(b), HeaderSize)
	}
	n, err := lim.payloadLen(b)
	if err != nil {
		return nil, nil, err
	}
	if n > len(b)-HeaderSize {
		return nil, nil, fmt.Errorf("%w: frame promises %d bytes, source ends at %d", ErrTruncated, n, len(b)-HeaderSize)
	}
	payload = b[HeaderSize : HeaderSize+n]
	if err := lim.checkPayload(payload); err != nil {
		return nil, nil, err
	}
	return payload, b[HeaderSize+n:], nil
}

// Reader reads frames from an io.Reader, validating them as Cut does. Its
// buffers are reused across frames and across Reset, so once warm it reads
// without allocating. Set its source with Reset.
type Reader struct {
	r   io.Reader
	lim Limits
	hdr [HeaderSize]byte
	buf []byte
}

// Reset points the reader at r, keeping its buffers and limits.
func (fr *Reader) Reset(r io.Reader) { fr.r = r }

// SetLimits sets what a frame may cost; it survives Reset.
func (fr *Reader) SetLimits(lim Limits) { fr.lim = lim }

// Next reads the next frame and returns its payload, valid until the next
// call. It returns io.EOF when the source ends between frames.
func (fr *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: reading frame header: %v", ErrTruncated, err)
	}
	n, err := fr.lim.payloadLen(fr.hdr[:])
	if err != nil {
		return nil, err
	}
	// Fill the buffer in bounded steps so the allocation tracks the bytes
	// that actually arrive instead of trusting the header's length.
	fr.buf = fr.buf[:0]
	for len(fr.buf) < n {
		start := len(fr.buf)
		step := min(n-start, readStep)
		fr.buf = slices.Grow(fr.buf, step)[:start+step]
		if _, err := io.ReadFull(fr.r, fr.buf[start:]); err != nil {
			return nil, fmt.Errorf("%w: frame promises %d bytes, source ends at %d (%v)", ErrTruncated, n, start, err)
		}
	}
	if err := fr.lim.checkPayload(fr.buf); err != nil {
		return nil, err
	}
	return fr.buf, nil
}

// DeclaredElements sums the elements the frames of b declare — the size of
// what decoding b yields — walking frame and container headers without
// decoding. ok is false when the walk cannot vouch for a count: Cut under
// Limits{MaxElements: max} refuses a frame, a payload holds another element
// type than elem, or the total passes max.
func DeclaredElements(b []byte, elem core.Elem, max int) (n int, ok bool) {
	lim := Limits{MaxElements: max}
	for {
		payload, rest, err := Cut(b, lim)
		if err == io.EOF {
			return n, true
		}
		if err != nil {
			return 0, false
		}
		m, _ := core.ParseHeader(payload) // Cut has parsed it
		if m.Elem != elem || m.Elements > max-n {
			return 0, false
		}
		n += m.Elements
		b = rest
	}
}

// FirstPayload returns the payload of the first frame of prefix, the start
// of a framed body, when prefix holds all of it and it is not empty.
func FirstPayload(prefix []byte) ([]byte, bool) {
	payload, _, err := Cut(prefix, Limits{})
	return payload, err == nil && len(payload) > 0
}
