//go:build linux

package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"

	"ceresz/internal/flenc"
)

// A Go bounds check cannot see what an assembly kernel reads. These tests
// put the compressed stream flush against pages that fault on any access,
// so a read one byte outside comp — by the scan, by a run decoder, on
// either kernel set — ends the test instead of going unnoticed.

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

// decodeGuarded decodes comp from both guarded positions at several worker
// counts, turning a fault into a test failure. It reports whether the
// stream decoded.
func decodeGuarded[F float32 | float64](t *testing.T, what string, comp []byte) (ok bool) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoding touched memory outside comp: %v", what, r)
		}
	}()
	atEnd, atStart, release := guardedCopies(t, comp)
	defer release()
	for _, c := range [][]byte{atEnd, atStart} {
		for _, workers := range []int{1, 3} {
			out, m, err := decompress[F](nil, c, workers)
			if err == nil && len(out) != m.Elements {
				t.Fatalf("%s: decoded %d of %d elements without an error", what, len(out), m.Elements)
			}
			ok = err == nil
		}
	}
	return ok
}

// hostileCorpus is a few valid streams that between them hold every kind
// of block: zero, narrow, wide, verbatim, and a partial last one.
func hostileCorpus[F float32 | float64](t *testing.T) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var corpus [][]byte
	for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
		for _, L := range []int{8, 32, 40} {
			data := make([]F, 9*L-3)
			for i := range data {
				switch b := i / L; {
				case b%4 == 1: // zero block
				case b == 6 && i%L == 2:
					data[i] = F(math.NaN())
				default:
					data[i] = F(math.Sin(float64(i)/5) * math.Ldexp(1, 3*(b%5)) * (1 + 0.01*rng.Float64()))
				}
			}
			var stats Stats
			comp, err := compressEps(nil, data, 1e-3, Options{BlockLen: L, HeaderBytes: hdr, Workers: 1}, &stats)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ZeroBlocks == 0 || stats.VerbatimBlocks == 0 {
				t.Fatalf("corpus stream has %d zero and %d verbatim blocks, want some of each", stats.ZeroBlocks, stats.VerbatimBlocks)
			}
			corpus = append(corpus, comp)
		}
	}
	return corpus
}

// testHostileStreamsStayInsideComp decodes every truncation of every
// corpus stream and a bit flip at every byte of it, on every kernel set.
func testHostileStreamsStayInsideComp[F float32 | float64](t *testing.T) {
	eachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		var decoded, refused int
		for i, comp := range hostileCorpus[F](t) {
			if !decodeGuarded[F](t, "the stream itself", comp) {
				t.Fatalf("corpus stream %d does not decode", i)
			}
			step := 1
			if testing.Short() || raceEnabled {
				step = 7
			}
			for n := 0; n < len(comp); n += step {
				decodeGuarded[F](t, "truncated stream", comp[:n])
				bad := bytes.Clone(comp)
				bad[n] ^= 1 << rng.Intn(8)
				if decodeGuarded[F](t, "bit-flipped stream", bad) {
					decoded++
				} else {
					refused++
				}
			}
		}
		if decoded == 0 || refused == 0 {
			t.Fatalf("bit flips: %d streams decoded, %d were refused; want both to occur", decoded, refused)
		}
	})
}

func TestHostileStreamsStayInsideComp32(t *testing.T) { testHostileStreamsStayInsideComp[float32](t) }
func TestHostileStreamsStayInsideComp64(t *testing.T) { testHostileStreamsStayInsideComp[float64](t) }
