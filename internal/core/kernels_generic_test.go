//go:build !amd64 || purego

package core

import "testing"

// eachKernelSet runs f as a subtest on every kernel set this build has:
// the Go kernels alone.
func eachKernelSet(t *testing.T, f func(t *testing.T)) {
	t.Run("go", f)
}
