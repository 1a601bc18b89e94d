//go:build !amd64 || purego

package chunkcache

import "ceresz/internal/kerneltest"

// kernelSets is the one lane-hash implementation this build has.
var kernelSets = []kerneltest.Set{{Name: "portable", Have: true}}
