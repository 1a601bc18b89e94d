//go:build !amd64 || purego

package cpufeat

// AVX2 is false in builds without the assembly kernels.
const AVX2 = false
