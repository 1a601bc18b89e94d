//go:build linux

package chunkcache

import (
	"runtime/debug"
	"syscall"
	"testing"
)

// A Go bounds check cannot see what the assembly kernel reads. This test
// puts data flush against pages that fault on any access, so a load one
// byte outside it — a lane's block read a register too far, the next
// super-block touched before the count says there is one — ends the test
// instead of going unnoticed. (The kernel's prefetches do run past the
// lanes; a prefetch of an inaccessible page is dropped, not a fault.)

// guardedCopies returns two copies of b in freshly mapped memory: one that
// ends where an inaccessible page begins, one that begins where an
// inaccessible page ends. release unmaps them.
func guardedCopies(t *testing.T, b []byte) (atEnd, atStart []byte, release func()) {
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

func TestLaneHashReadsOnlyData(t *testing.T) {
	eachKernelSet(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		h := NewHasher()
		buf := randomBytes(9, 64<<10+1023)
		lengths := []int{0, 1, 63, 64, 1023, 1024, 1025, 2047, 2048, 3*1024 + 1, 4096, 4097, 17 * 1024, 64 << 10, len(buf)}
		for _, n := range lengths {
			func() {
				atEnd, atStart, release := guardedCopies(t, buf[:n])
				defer release()
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("len %d: hashing touched memory outside data: %v", n, r)
					}
				}()
				want, _ := refKey(nil, buf[:n])
				for _, data := range [][]byte{atEnd, atStart} {
					if got := h.Key(h.Preamble(), data); got != want {
						t.Fatalf("len %d: Key %x, want %x", n, got, want)
					}
				}
			}()
		}
	})
}
