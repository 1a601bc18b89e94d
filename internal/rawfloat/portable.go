//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) || purego

package rawfloat

import (
	"io"
	"slices"
)

// Bytes returns the wire image of f, encoded into scratch[:0] (grown when
// too small).
func Bytes[F Float](scratch []byte, f []F) []byte {
	return Append(scratch[:0], f)
}

// Append appends the wire image of f to dst.
func Append[F Float](dst []byte, f []F) []byte {
	at, n := len(dst), len(f)*Size[F]()
	dst = slices.Grow(dst, n)[:at+n]
	encode(dst[at:], f)
	return dst
}

// ReadFull reads the wire image of len(dst) elements from r into dst and
// returns the bytes that arrived, with io.ReadFull's error: io.EOF when
// there were none, io.ErrUnexpectedEOF when r ended early. dst[:n] is
// filled for the n whole elements among them. Here the bytes are read into
// scratch[:0] (grown when too small) and decoded from there.
func ReadFull[F Float](r io.Reader, dst []F, scratch []byte) ([]byte, error) {
	es := Size[F]()
	scratch = slices.Grow(scratch[:0], len(dst)*es)[:len(dst)*es]
	n, err := io.ReadFull(r, scratch)
	Decode(dst[:n/es], scratch)
	return scratch[:n], err
}

// Decode fills dst from the wire image in src, which must hold at least
// len(dst) elements.
func Decode[F Float](dst []F, src []byte) {
	decode(dst, src[:len(dst)*Size[F]()])
}
