//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package rawfloat

import (
	"io"
	"unsafe"
)

// view returns f's memory as bytes.
func view[F Float](f []F) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*Size[F]())
}

// Bytes returns the wire image of f: here f's own memory, valid for as
// long as f is and changing with it. scratch is not used.
func Bytes[F Float](scratch []byte, f []F) []byte {
	return view(f)
}

// Append appends the wire image of f to dst.
func Append[F Float](dst []byte, f []F) []byte {
	return append(dst, view(f)...)
}

// ReadFull reads the wire image of len(dst) elements from r into dst and
// returns the bytes that arrived, with io.ReadFull's error: io.EOF when
// there were none, io.ErrUnexpectedEOF when r ended early. dst[:n] is
// filled for the n whole elements among them. Here the bytes land in dst's
// memory directly; scratch is not used.
func ReadFull[F Float](r io.Reader, dst []F, scratch []byte) ([]byte, error) {
	b := view(dst)
	n, err := io.ReadFull(r, b)
	return b[:n], err
}

// Decode fills dst from the wire image in src, which must hold at least
// len(dst) elements.
func Decode[F Float](dst []F, src []byte) {
	b := view(dst)
	copy(b, src[:len(b)])
}
