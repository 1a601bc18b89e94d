//go:build !amd64 || purego

package chunkcache

import "testing"

// eachKernelSet runs f on the one lane-hash implementation this build has.
func eachKernelSet(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", f)
}
