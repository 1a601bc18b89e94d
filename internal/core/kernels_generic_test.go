//go:build !amd64 || purego

package core

import "ceresz/internal/kerneltest"

// kernelSets are the kernel sets of this build: the Go kernels alone.
var kernelSets = []kerneltest.Set{{Name: "go", Have: true}}
