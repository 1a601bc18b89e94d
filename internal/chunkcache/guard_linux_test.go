//go:build linux

package chunkcache

import (
	"runtime/debug"
	"testing"

	"ceresz/internal/kerneltest"
)

// A Go bounds check cannot see what the assembly kernel reads. This test
// puts data flush against pages that fault on any access, so a load one
// byte outside it — a lane's block read a register too far, the next
// super-block touched before the count says there is one — ends the test
// instead of going unnoticed. (The kernel's prefetches do run past the
// lanes; a prefetch of an inaccessible page is dropped, not a fault.)

func TestLaneHashReadsOnlyData(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		h := NewHasher()
		buf := randomBytes(9, 64<<10+1023)
		lengths := []int{0, 1, 63, 64, 1023, 1024, 1025, 2047, 2048, 3*1024 + 1, 4096, 4097, 17 * 1024, 64 << 10, len(buf)}
		for _, n := range lengths {
			func() {
				atEnd, atStart, release := kerneltest.GuardedCopies(t, buf[:n])
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
