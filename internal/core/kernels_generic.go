//go:build !amd64 || purego

package core

// Without the assembly kernels the Go kernels are the only path; the
// constant compiles the dispatch branches away and the methods below are
// never reached.
const useAVX2 = false

func (e *blockEncoder) encodeVector(dst []byte, src []float32, stats *Stats) []byte {
	panic("core: no vector kernels in this build")
}

func (e *blockEncoder64) encodeVector(dst []byte, src []float64, stats *Stats) []byte {
	panic("core: no vector kernels in this build")
}

func (d *blockDecoder) decodeVector(full []float32, signs, planes []byte, w uint) {
	panic("core: no vector kernels in this build")
}

func (d *blockDecoder64) decodeVector(full []float64, signs, planes []byte, w uint) {
	panic("core: no vector kernels in this build")
}
