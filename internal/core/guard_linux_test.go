//go:build linux

package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"ceresz/internal/flenc"
	"ceresz/internal/kerneltest"
)

// A Go bounds check cannot see what an assembly kernel reads. These tests
// put the compressed stream flush against pages that fault on any access,
// so a read one byte outside comp — by the scan, by a run decoder, on
// any kernel set — ends the test instead of going unnoticed.

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
	atEnd, atStart, release := kerneltest.GuardedCopies(t, comp)
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
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
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

// TestWideLastBlockStaysInsideComp ends a stream with a block of width
// 9–16 or 32 — two layers of planes, or all of them — flush against an
// inaccessible page, whole and cut short, for both element types, both
// header sizes and block lengths 8, 32 and 40 (whose fifth group lies
// outside whole sixteen-lane halves), on every kernel set: a decoder that
// reads a plane past the block's top one faults.
func TestWideLastBlockStaysInsideComp(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		testWideLastBlock[float32](t)
		testWideLastBlock[float64](t)
	})
}

func testWideLastBlock[F float32 | float64](t *testing.T) {
	widths := []byte{9, 10, 11, 12, 13, 14, 15, 16, flenc.MaxWidth}
	for _, L := range []int{8, 32, 40} {
		for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
			for _, w := range widths {
				var data []F
				for _, kind := range []byte{3, 0, w} {
					data = append(data, runBlock[F](L, kind)...)
				}
				for _, cut := range []int{0, 3} {
					in := data[:len(data)-cut]
					var stats Stats
					comp, err := compressEps(nil, in, runEps, Options{BlockLen: L, HeaderBytes: hdr, Workers: 1}, &stats)
					if err != nil {
						t.Fatal(err)
					}
					if stats.WidthHistogram[w] != 1 {
						t.Fatalf("L=%d hdr=%d: the last block is not of width %d: %v", L, hdr, w, stats.WidthHistogram)
					}
					if !decodeGuarded[F](t, fmt.Sprintf("%T L=%d hdr=%d width %d cut %d", in[0], L, hdr, w, cut), comp) {
						t.Fatalf("L=%d hdr=%d width %d: the stream does not decode", L, hdr, w)
					}
				}
			}
		}
	}
}
