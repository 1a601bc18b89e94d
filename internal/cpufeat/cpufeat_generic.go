//go:build !amd64 || purego

package cpufeat

// AVX2 and AVX512 are false in builds without the assembly kernels.
const (
	AVX2   = false
	AVX512 = false
)
