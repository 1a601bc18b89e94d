//go:build amd64 && !purego

package chunkcache

import (
	"testing"

	"ceresz/internal/cpufeat"
)

// eachKernelSet runs f once per lane-hash implementation the host can
// execute: the crypto/sha256 one always, the AVX-512 kernel where the CPU
// has it. Not for parallel subtests: it flips the package's dispatch flag.
func eachKernelSet(t *testing.T, f func(t *testing.T)) {
	on := func(vector bool) func(*testing.T) {
		return func(t *testing.T) {
			was := useAVX512
			useAVX512 = vector
			defer func() { useAVX512 = was }()
			f(t)
		}
	}
	t.Run("portable", on(false))
	if cpufeat.AVX512 {
		t.Run("avx512", on(true))
	}
}
