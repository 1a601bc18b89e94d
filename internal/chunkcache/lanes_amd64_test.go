//go:build amd64 && !purego

package chunkcache

import (
	"ceresz/internal/cpufeat"
	"ceresz/internal/kerneltest"
)

// kernelSets are the lane-hash implementations: the crypto/sha256 one
// always, the AVX-512 kernel where the CPU has it.
var kernelSets = []kerneltest.Set{
	{Name: "portable", Have: true, Flags: []*bool{&useAVX512}, On: []bool{false}},
	{Name: "avx512", Have: cpufeat.AVX512, Flags: []*bool{&useAVX512}, On: []bool{true}},
}
