//go:build !amd64 || purego

package core

// Without the assembly kernels the run functions are the Go loops.

func (e *blockEncoder[F]) encodeRun(room []byte, src []F, widths []byte) (done, used int) {
	return e.encodeRunGo(room, src, widths)
}

func (d *blockDecoder[F]) decodeRun(out []F, body, widths []byte, hdr int, twoE float64) (done, used int) {
	return d.decodeRunGo(out, body, widths, hdr, twoE)
}
