//go:build !amd64 || purego

package cpufeat

import "testing"

func TestAVX2OffWithoutKernels(t *testing.T) {
	if AVX2 {
		t.Fatal("AVX2 set in a build without the assembly kernels")
	}
}

func TestAVX512OffWithoutKernels(t *testing.T) {
	if AVX512 {
		t.Fatal("AVX512 set in a build without the assembly kernels")
	}
}
