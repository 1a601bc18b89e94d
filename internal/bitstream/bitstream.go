// Package bitstream provides LSB-first bit-level readers and writers used by
// the fixed-length encoder and the Huffman coder.
//
// All routines are allocation-conscious: a Writer grows a single internal
// byte slice and a Reader never copies its input. Bit order within a byte is
// least-significant-bit first, which matches the bit-shuffle layout used by
// CereSZ (bit k of integer i lands in plane k, bit position i).
package bitstream

import (
	"errors"
	"fmt"
)

// ErrOutOfBits is returned when a Reader is asked for more bits than remain.
var ErrOutOfBits = errors.New("bitstream: out of bits")

// Writer accumulates bits LSB-first into a growing byte slice.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit uint64 // total bits written
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Reset clears the writer for reuse, keeping the underlying buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Len returns the number of whole bytes needed to hold the written bits.
func (w *Writer) Len() int { return int((w.nbit + 7) / 8) }

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint32) {
	idx := int(w.nbit >> 3)
	if idx == len(w.buf) {
		w.buf = append(w.buf, 0)
	}
	if b&1 != 0 {
		w.buf[idx] |= 1 << (w.nbit & 7)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, LSB first. n must be in [0, 32].
func (w *Writer) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d > 32", n))
	}
	for i := uint(0); i < n; i++ {
		w.WriteBit(v >> i)
	}
}

// WriteBits64 appends the low n bits of v, LSB first. n must be in [0, 64].
func (w *Writer) WriteBits64(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits64 n=%d > 64", n))
	}
	for i := uint(0); i < n; i++ {
		w.WriteBit(uint32(v>>i) & 1)
	}
}

// Bytes returns the written bytes. The final partial byte, if any, is
// zero-padded in its high bits. The returned slice aliases the writer's
// internal buffer and is invalidated by further writes or Reset.
func (w *Writer) Bytes() []byte {
	return w.buf[:w.Len()]
}

// Reader consumes bits LSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos uint64 // bit cursor
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() uint64 {
	total := uint64(len(r.buf)) * 8
	if r.pos >= total {
		return 0
	}
	return total - r.pos
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint32, error) {
	idx := int(r.pos >> 3)
	if idx >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	b := uint32(r.buf[idx]>>(r.pos&7)) & 1
	r.pos++
	return b, nil
}

// ReadBits reads n bits (n ≤ 32), LSB first, into the low bits of the result.
func (r *Reader) ReadBits(n uint) (uint32, error) {
	if n > 32 {
		return 0, fmt.Errorf("bitstream: ReadBits n=%d > 32", n)
	}
	if r.Remaining() < uint64(n) {
		return 0, ErrOutOfBits
	}
	var v uint32
	for i := uint(0); i < n; i++ {
		b, _ := r.ReadBit()
		v |= b << i
	}
	return v, nil
}

// ReadBits64 reads n bits (n ≤ 64), LSB first.
func (r *Reader) ReadBits64(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitstream: ReadBits64 n=%d > 64", n)
	}
	if r.Remaining() < uint64(n) {
		return 0, ErrOutOfBits
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, _ := r.ReadBit()
		v |= uint64(b) << i
	}
	return v, nil
}
