//go:build linux

package kerneltest

import (
	"syscall"
	"testing"
)

// GuardedCopies returns two copies of b in freshly mapped memory: one that
// ends where an inaccessible page begins, one that begins where an
// inaccessible page ends. A Go bounds check cannot see what an assembly
// kernel reads; run under debug.SetPanicOnFault, a load one byte outside
// either copy becomes a recoverable panic. release unmaps them.
func GuardedCopies(t testing.TB, b []byte) (atEnd, atStart []byte, release func()) {
	t.Helper()
	page := syscall.Getpagesize()
	size := 2 * max(1, (len(b)+page-1)/page) * page // a half for each copy
	mem, err := syscall.Mmap(-1, 0, page+size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	release = func() { _ = syscall.Munmap(mem) } // test memory: nothing to do about a failed unmap
	for _, guard := range [][]byte{mem[:page], mem[page+size:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			release()
			t.Skipf("mprotect: %v", err)
		}
	}
	atStart = mem[page : page+len(b) : page+len(b)]
	atEnd = mem[page+size-len(b) : page+size : page+size]
	copy(atStart, b)
	copy(atEnd, b)
	return atEnd, atStart, release
}
