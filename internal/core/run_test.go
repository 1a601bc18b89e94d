package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ceresz/internal/flenc"
	"ceresz/internal/kerneltest"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
)

// The run kernels are tested against the block path: the same blocks
// encoded and decoded one at a time through the retained reference
// pipeline (compressRef, decompressRef). What a run adds to a block — the
// running offset, the width table, the room, the returns to Go at a
// verbatim or partial block — is what these tests are about; the
// per-element arithmetic has its own (vector_test.go, fastpath_test.go).
// Everything runs on every kernel set the build has (kernelSets).

// runEps makes codes equal values: 2ε = 1.
const runEps = 0.5

// runBlock returns a block of L elements whose width-table entry under
// runEps is w: zeros for 0; a first delta of 2^(w−1) for a fixed length w;
// 2³⁰ then −2³⁰, a delta of −2³¹, for 32 (nothing else is that wide); and a
// NaN, which only a verbatim block can hold, for widthVerbatim.
func runBlock[F float32 | float64](L int, w byte) []F {
	block := make([]F, L)
	switch {
	case w == widthVerbatim:
		block[0], block[1] = F(math.NaN()), 3
	case w == flenc.MaxWidth:
		block[0], block[1] = 1<<30, -(1 << 30)
	case w > 0:
		block[0] = F(math.Ldexp(1, int(w)-1))
		block[1] = block[0]
	}
	return block
}

func floatBits[F float32 | float64](x F) uint64 {
	if x32, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(x32))
	}
	return math.Float64bits(float64(x))
}

func sameBits[F float32 | float64](a, b []F) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if floatBits(a[i]) != floatBits(b[i]) {
			return false
		}
	}
	return true
}

// wireOffsets returns where each block of a width table starts in the
// body, and where the last one ends.
func wireOffsets[F float32 | float64](widths []byte, L, hdr int) []int {
	offsets := make([]int, len(widths)+1)
	for b, w := range widths {
		offsets[b+1] = offsets[b] + wireSize(w, L, hdr, rawfloat.Size[F]())
	}
	return offsets
}

// checkRun compresses and decompresses one run of blocks — kinds gives
// each block's width-table entry, tail the length the last block is cut
// to — and compares every way of doing it with the block path: the
// sequential run, the run sharded at every worker count, and the run cut
// in two at every block index at the encoder's and the decoder's own entry
// points.
func checkRun[F float32 | float64](t *testing.T, L, hdr int, kinds []byte, tail int) {
	t.Helper()
	n := len(kinds)
	var data []F
	for _, w := range kinds {
		data = append(data, runBlock[F](L, w)...)
	}
	data = data[:len(data)-L+tail]
	opts := Options{BlockLen: L, HeaderBytes: hdr, Workers: 1}
	name := fmt.Sprintf("L=%d hdr=%d tail=%d kinds=%v", L, hdr, tail, kinds)

	want, err := compressRef(data, runEps, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wantStats Stats
	wantStats.tally(kinds)
	for workers := 1; workers <= n; workers++ {
		opts.Workers = workers
		var stats Stats
		got, err := compressEps(nil, data, runEps, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s workers=%d: run encodes to\n %x\nblock path to\n %x", name, workers, got, want)
		}
		if stats.ZeroBlocks != wantStats.ZeroBlocks || stats.VerbatimBlocks != wantStats.VerbatimBlocks ||
			stats.WidthHistogram != wantStats.WidthHistogram || stats.Blocks != n || stats.CompressedBytes != len(want) {
			t.Fatalf("%s workers=%d: stats %+v, want the tally of kinds %+v", name, workers, stats, wantStats)
		}
	}
	q, _ := quant.MakeQuantizer(runEps)
	enc := getEncoder[F](L, hdr, q)
	body := want[StreamHeaderSize:]
	for cut := 0; cut <= n; cut++ {
		widths := make([]byte, n)
		at := min(cut*L, len(data))
		got := enc.encodeBlocks(nil, data[:at], widths[:cut])
		got = enc.encodeBlocks(got, data[at:], widths[cut:])
		if !bytes.Equal(got, body) || !bytes.Equal(widths, kinds) {
			t.Fatalf("%s: cut at block %d the run encodes to\n %x widths %v\nblock path to\n %x", name, cut, got, widths, body)
		}
	}
	putEncoder(enc)

	ref, err := decompressRef[F](want)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(ref, data) {
		t.Fatalf("%s: the block path does not give the input back", name)
	}
	for workers := 1; workers <= n; workers++ {
		got, _, err := decompress[F](nil, want, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if !sameBits(got, ref) {
			t.Fatalf("%s workers=%d: run decodes to %v, block path to %v", name, workers, got, ref)
		}
	}
	dec := getDecoder[F](L)
	offsets := wireOffsets[F](kinds, L, hdr)
	for cut := 0; cut <= n; cut++ {
		got := make([]F, len(data))
		at := min(cut*L, len(data))
		dec.decodeBlocks(got[:at], body, kinds[:cut], hdr, q.TwoEps())
		dec.decodeBlocks(got[at:], body[offsets[cut]:], kinds[cut:], hdr, q.TwoEps())
		if !sameBits(got, ref) {
			t.Fatalf("%s: cut at block %d the run decodes to %v, block path to %v", name, cut, got, ref)
		}
	}
	putDecoder(dec)
}

func testRunKernels[F float32 | float64](t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		// Every run of up to five blocks over a zero block, a narrow one,
		// the widest and a verbatim one: a verbatim block first, in the
		// middle, last, next to another; all-zero runs; zero and wide in
		// turn; each whole and with the last block cut short.
		alphabet := []byte{0, 5, flenc.MaxWidth, widthVerbatim}
		maxLen := 5
		if testing.Short() || raceEnabled {
			maxLen = 4
		}
		for _, L := range []int{8, 32, 40} {
			for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
				for n := 1; n <= maxLen; n++ {
					kinds := make([]byte, n)
					for code := 0; code < 1<<(2*n); code++ {
						for i := range kinds {
							kinds[i] = alphabet[code>>(2*i)&3]
						}
						checkRun[F](t, L, hdr, kinds, L)
						if code%5 == 0 {
							checkRun[F](t, L, hdr, kinds, L-3)
						}
					}
				}
				// Every width there is, up and down, around a verbatim block.
				var all []byte
				for w := 0; w <= flenc.MaxWidth; w++ {
					all = append(all, byte(w))
				}
				all = append(all, widthVerbatim)
				for w := flenc.MaxWidth; w >= 0; w-- {
					all = append(all, byte(w))
				}
				checkRun[F](t, L, hdr, all, L)
				checkRun[F](t, L, hdr, all, 2)
			}
		}
	})
}

func TestRunKernelsMatchBlockPath32(t *testing.T) { testRunKernels[float32](t) }
func TestRunKernelsMatchBlockPath64(t *testing.T) { testRunKernels[float64](t) }

// TestRunKernelsLongRuns is the property half: long runs of blocks drawn at
// random — smooth, noisy, inside the zero threshold, holding a NaN — at a
// bound that leaves the widths to the data, against the block path.
func TestRunKernelsLongRuns(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		const eps = 1e-3
		for iter := 0; iter < 40; iter++ {
			L := 8 * (1 + rng.Intn(8))
			n := 1 + rng.Intn(300)
			d64 := make([]float64, n*L-rng.Intn(L))
			for b := 0; b*L < len(d64); b++ {
				block := d64[b*L : min(b*L+L, len(d64))]
				switch kind := rng.Intn(8); kind {
				case 0: // zero block
				case 1:
					block[rng.Intn(len(block))] = math.NaN()
				case 2:
					for i := range block {
						block[i] = eps * 0.4 * rng.NormFloat64()
					}
				default:
					scale := math.Ldexp(eps, rng.Intn(24))
					for i := range block {
						block[i] = math.Sin(float64(b*L+i)/17) + scale*rng.NormFloat64()
					}
				}
			}
			d32 := make([]float32, len(d64))
			for i, v := range d64 {
				d32[i] = float32(v)
			}
			opts := Options{BlockLen: L, HeaderBytes: []int{flenc.HeaderU32, flenc.HeaderU8}[iter%2], Workers: 1 + iter%3}
			checkLongRun(t, d32, eps, opts)
			checkLongRun(t, d64, eps, opts)
		}
	})
}

func checkLongRun[F float32 | float64](t *testing.T, data []F, eps float64, opts Options) {
	t.Helper()
	want, err := compressRef(data, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	got, err := compressEps(nil, data, eps, opts.withDefaults(), &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("n=%d L=%d hdr=%d workers=%d: run and block path encode differently", len(data), opts.BlockLen, opts.HeaderBytes, opts.Workers)
	}
	ref, err := decompressRef[F](want)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := decompress[F](nil, want, opts.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(out, ref) {
		t.Fatalf("n=%d L=%d hdr=%d workers=%d: run and block path decode differently", len(data), opts.BlockLen, opts.HeaderBytes, opts.Workers)
	}
}

// TestVectorKernelsStayInBounds pins the extents the run functions are
// promised and promise. The encoder may scribble over all the room it was
// given — reserve bytes per block, which a run of the widest blocks fills
// to the last byte — and writes its width entries, but not a byte before or
// after either; the decoder writes exactly the elements of its blocks.
// Everything sits between canaries, at every width.
func TestVectorKernelsStayInBounds(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		testRunBounds[float32](t)
		testRunBounds[float64](t)
	})
}

func testRunBounds[F float32 | float64](t *testing.T) {
	const canary = 0xA5
	q, err := quant.MakeQuantizer(runEps)
	if err != nil {
		t.Fatal(err)
	}
	// Every width, a verbatim block first, in the middle and last, and
	// enough of the widest to fill their room exactly.
	kinds := []byte{widthVerbatim}
	for w := 0; w <= flenc.MaxWidth; w++ {
		kinds = append(kinds, byte(w))
	}
	kinds = append(kinds, widthVerbatim, flenc.MaxWidth, flenc.MaxWidth, 0, flenc.MaxWidth, widthVerbatim)
	n := len(kinds)
	for _, L := range []int{8, 24, 32, 40, 64} {
		var src []F
		for _, w := range kinds {
			src = append(src, runBlock[F](L, w)...)
		}
		for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
			enc := getEncoder[F](L, hdr, q)
			dec := getDecoder[F](L)
			name := fmt.Sprintf("%T L=%d hdr=%d", src[0], L, hdr)

			const at = 13
			room := n * enc.reserve
			buf := bytes.Repeat([]byte{canary}, at+room+64)
			wbuf := bytes.Repeat([]byte{canary}, 8+n+8)
			out := enc.encodeBlocks(buf[:at:at+room], src, wbuf[8:8+n])
			if &out[0] != &buf[0] {
				t.Fatalf("%s: encodeBlocks reallocated a dst with room for every block", name)
			}
			body := bytes.Clone(out[at:])
			if !bytes.Equal(wbuf[8:8+n], kinds) {
				t.Fatalf("%s: width table %v, built blocks of %v", name, wbuf[8:8+n], kinds)
			}
			for i, b := range wbuf {
				if (i < 8 || i >= 8+n) && b != canary {
					t.Fatalf("%s: encoder wrote outside the width table (entry %d)", name, i-8)
				}
			}
			for i, b := range buf {
				if (i < at || i >= at+room) && b != canary {
					t.Fatalf("%s: encoder wrote outside its room (byte %d of %d)", name, i-at, room)
				}
			}

			// Short of room the run must stop by itself, before the first
			// block it cannot promise reserve bytes to, and for no other
			// reason but a verbatim block.
			for room := 0; room <= 5*enc.reserve; room += 7 {
				for i := range buf {
					buf[i] = canary
				}
				from := 1 + room%5 // past the verbatim block the run begins with
				done, used := enc.encodeRun(buf[at:at+room], src[from*L:], wbuf[8+from:8+n])
				for i, b := range buf {
					if (i < at || i >= at+room) && b != canary {
						t.Fatalf("%s: with %d bytes of room the encoder wrote byte %d", name, room, i-at)
					}
				}
				if used > room || !bytes.Equal(wbuf[8:8+n], kinds) {
					t.Fatalf("%s: with %d bytes of room the run used %d, widths %v", name, room, used, wbuf[8:8+n])
				}
				if next := from + done; next < n && kinds[next] != widthVerbatim && room-used >= enc.reserve {
					t.Fatalf("%s: the run stopped at block %d with %d of %d bytes used, reserve %d", name, next, used, room, enc.reserve)
				}
				if want := wireOffsets[F](kinds, L, hdr); used != want[from+done]-want[from] {
					t.Fatalf("%s: %d blocks from %d take %d bytes, the run used %d", name, done, from, want[from+done]-want[from], used)
				}
			}

			vals := make([]F, 8+n*L+8)
			for i := range vals {
				vals[i] = -7
			}
			stream := bytes.Clone(body)
			dec.decodeBlocks(vals[8:8+n*L], body, wbuf[8:8+n], hdr, q.TwoEps())
			for i, v := range vals[:8] {
				if v != -7 || vals[8+n*L+i] != -7 {
					t.Fatalf("%s: decoder wrote outside its blocks", name)
				}
			}
			if !sameBits(vals[8:8+n*L], src) {
				t.Fatalf("%s: run decodes to %v, want %v", name, vals[8:8+n*L], src)
			}
			if !bytes.Equal(body, stream) || !bytes.Equal(wbuf[8:8+n], kinds) {
				t.Fatalf("%s: decoder wrote to the body or the width table", name)
			}
			putEncoder(enc)
			putDecoder(dec)
		}
	}
}

// TestBlockReserveCoversEveryBlock is the arithmetic behind the room: no
// block, coded at any width or verbatim, is larger than blockReserve, and
// the widest coded float32 block is larger than a verbatim one.
func TestBlockReserveCoversEveryBlock(t *testing.T) {
	for _, L := range []int{8, 32, 64, 65528} {
		for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
			for _, elemSize := range []int{4, 8} {
				reserve := blockReserve(L, hdr, elemSize)
				for w := 0; w <= flenc.MaxWidth; w++ {
					if size := wireSize(byte(w), L, hdr, elemSize); size > reserve {
						t.Fatalf("L=%d hdr=%d: width %d takes %d bytes, reserve is %d", L, hdr, w, size, reserve)
					}
				}
				if size := wireSize(widthVerbatim, L, hdr, elemSize); size > reserve {
					t.Fatalf("L=%d hdr=%d elem=%d: a verbatim block takes %d bytes, reserve is %d", L, hdr, elemSize, size, reserve)
				}
			}
		}
	}
	if got, verbatim := blockReserve(32, flenc.HeaderU32, 4), wireSize(widthVerbatim, 32, flenc.HeaderU32, 4); got != 136 || verbatim != 132 {
		t.Fatalf("float32 L=32: reserve %d, verbatim %d; want 136 and 132", got, verbatim)
	}
}

// scanCase is one malformed body and the error the scan must give it.
type scanCase struct {
	name string
	hdr  int
	body []byte
	want string
}

// scanCases enumerates what scanOffsets, flenc.Header and flenc.DecodeBody
// used to reject between them, for three blocks of eight elements of
// elemSize bytes: each case is two good blocks and a bad third.
func scanCases(elemSize int) []scanCase {
	u32 := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
	coded := func(hdr []byte, w int) []byte { return append(hdr, make([]byte, w+1)...) } // L/8 = 1 byte per plane
	good32 := append(coded(u32(3), 3), u32(0)...)
	good8 := append(coded([]byte{3}, 3), 0)
	verbatim := make([]byte, 8*elemSize)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return []scanCase{
		{"u32 no header", 4, good32, "block 2: flenc: truncated header: have 0 bytes, need 4"},
		{"u32 three header bytes", 4, cat(good32, []byte{1, 0, 0}), "block 2: flenc: truncated header: have 3 bytes, need 4"},
		{"u8 no header", 1, good8, "block 2: flenc: truncated header: have 0 bytes, need 1"},
		{"u32 width 33", 4, cat(good32, coded(u32(33), 33)), "block 2: invalid fixed length 33"},
		{"u32 width 255", 4, cat(good32, coded(u32(255), 255)), "block 2: invalid fixed length 255"},
		{"u32 width with a high byte", 4, cat(good32, coded(u32(0x01000005), 5)), "block 2: invalid fixed length 16777221"},
		{"u32 zero with a high byte", 4, cat(good32, u32(0x00010000)), "block 2: invalid fixed length 65536"},
		{"u32 marker one bit short", 4, cat(good32, u32(0xFFFFFEFF), verbatim), "block 2: invalid fixed length 4294967039"},
		{"u32 sign-extended byte", 4, cat(good32, u32(0xFFFFFF80), verbatim), "block 2: invalid fixed length 4294967168"},
		{"u8 width 33", 1, cat(good8, coded([]byte{33}, 33)), "block 2: invalid fixed length 33"},
		{"u8 width 254", 1, cat(good8, coded([]byte{254}, 254)), "block 2: invalid fixed length 254"},
		{"u32 coded block one byte short", 4, cat(good32, coded(u32(7), 6)), "block 2 overruns stream"},
		{"u32 coded block header only", 4, cat(good32, u32(1)), "block 2 overruns stream"},
		{"u8 widest block one byte short", 1, cat(good8, coded([]byte{32}, 31)), "block 2 overruns stream"},
		{"u32 verbatim one byte short", 4, cat(good32, u32(0xFFFFFFFF), verbatim[1:]), "block 2 overruns stream"},
		{"u8 verbatim header only", 1, cat(good8, []byte{0xFF}), "block 2 overruns stream"},
		{"u32 first block bad", 4, u32(40), "block 0: invalid fixed length 40"},
	}
}

// testScanRejects runs every scanCase through the scan itself and through
// Decompress at worker counts that put the bad block in the first, a
// middle and the last shard, and requires ErrBadStream, the message, and
// dst back exactly as it went in: same length, same backing array, nothing
// grown, nothing written.
func testScanRejects[F float32 | float64](t *testing.T) {
	elemSize := rawfloat.Size[F]()
	for _, c := range scanCases(elemSize) {
		m := Meta{HeaderBytes: c.hdr, BlockLen: 8, Elements: 3*8 - 2, Eps: 0.25, Elem: elemOf[F]()}
		if c.name == "u32 first block bad" {
			m.Elements = 8
		}
		widths := make([]byte, m.Blocks())
		err := scanWidths(c.body, m, elemSize, widths, make([]shardBuf, 1))
		if err == nil || !errors.Is(err, ErrBadStream) || err.Error() != ErrBadStream.Error()+": "+c.want {
			t.Errorf("%s: scan error %q, want %q", c.name, err, ErrBadStream.Error()+": "+c.want)
		}
		comp := append(AppendStreamHeader(nil, m), c.body...)
		for workers := 1; workers <= 3; workers++ {
			dst := make([]F, 5, 5)
			for i := range dst {
				dst[i] = 42
			}
			out, _, err := decompress(dst[:3], comp, workers)
			if len(comp) < m.MinStreamBytes() {
				// Too short to hold its headers: refused before the scan.
				if !errors.Is(err, ErrBadStream) {
					t.Errorf("%s workers=%d: error %v", c.name, workers, err)
				}
			} else if err == nil || err.Error() != ErrBadStream.Error()+": "+c.want {
				t.Errorf("%s workers=%d: error %q, want %q", c.name, workers, err, c.want)
			}
			if len(out) != 3 || cap(out) != 5 || &out[0] != &dst[0] {
				t.Errorf("%s workers=%d: dst came back with len %d cap %d, went in with 3 and 5", c.name, workers, len(out), cap(out))
			}
			for _, v := range dst {
				if v != 42 {
					t.Errorf("%s workers=%d: dst was written to: %v", c.name, workers, dst)
					break
				}
			}
		}
	}
}

func TestScanRejects32(t *testing.T) { kerneltest.Each(t, kernelSets, testScanRejects[float32]) }
func TestScanRejects64(t *testing.T) { kerneltest.Each(t, kernelSets, testScanRejects[float64]) }

// TestDecodeAmplification pins how much output a byte of input can ask
// for. The smallest block is a bare zero header, so a stream of them is the
// worst case: L elements for hdr bytes, which at the format's own
// parameters is 32× on float32 (a 4-byte header for 32 elements, 128
// bytes). A header that declares more than the body has headers for is
// refused before anything is sized by it.
func TestDecodeAmplification(t *testing.T) { kerneltest.Each(t, kernelSets, testDecodeAmplification) }

func testDecodeAmplification(t *testing.T) {
	const blocks = 1000
	m := Meta{HeaderBytes: flenc.HeaderU32, BlockLen: DefaultBlockLen, Elements: blocks * DefaultBlockLen, Eps: 1}
	comp := append(AppendStreamHeader(nil, m), make([]byte, blocks*flenc.HeaderU32)...)
	out, _, err := Decompress(nil, comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if body := len(comp) - StreamHeaderSize; 4*len(out) != 32*body {
		t.Fatalf("%d body bytes of zero headers decode to %d bytes, want exactly 32x", body, 4*len(out))
	}
	// One element more needs one header more than the stream has.
	m.Elements++
	comp = append(AppendStreamHeader(nil, m), make([]byte, blocks*flenc.HeaderU32)...)
	if out, _, err := Decompress(nil, comp, 1); !errors.Is(err, ErrBadStream) || out != nil {
		t.Fatalf("stream declaring a block it has no header for: %d elements, error %v", len(out), err)
	}
}

// TestDeclaredElementsBeyondBody grows the element count of a real stream
// until the body cannot hold the blocks it declares, while staying under
// the plausibility floor of one header per block, so that it is the scan
// that must refuse it — and must do so before dst is grown.
func testDeclaredElementsBeyondBody[F float32 | float64](t *testing.T) {
	data := make([]F, 64*DefaultBlockLen)
	for i := range data {
		data[i] = F(math.Sin(float64(i)/9) * 1000)
	}
	var stats Stats
	comp, err := compressEps(nil, data, 1e-3, Options{}.withDefaults(), &stats)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ParseHeader(comp)
	for _, extra := range []int{1, DefaultBlockLen, 5 * DefaultBlockLen} {
		m.Elements = len(data) + extra
		bad := append(AppendStreamHeader(nil, m), comp[StreamHeaderSize:]...)
		if len(bad) < m.MinStreamBytes() {
			t.Fatalf("extra=%d: the stream is implausible, the scan would not be reached", extra)
		}
		for workers := 1; workers <= 4; workers++ {
			out, _, err := decompress[F](nil, bad, workers)
			if !errors.Is(err, ErrBadStream) {
				t.Fatalf("extra=%d workers=%d: error %v", extra, workers, err)
			}
			if out != nil {
				t.Fatalf("extra=%d workers=%d: dst grew to len %d cap %d before the stream was refused", extra, workers, len(out), cap(out))
			}
		}
	}
}

func TestDeclaredElementsBeyondBody32(t *testing.T) { testDeclaredElementsBeyondBody[float32](t) }
func TestDeclaredElementsBeyondBody64(t *testing.T) { testDeclaredElementsBeyondBody[float64](t) }

// TestBlockOffsetsMatchesScan checks the public 8-byte offsets against the
// width table they are now derived from.
func TestBlockOffsetsMatchesScan(t *testing.T) {
	kinds := []byte{3, 0, widthVerbatim, flenc.MaxWidth, 0, 1}
	var data []float32
	for _, w := range kinds {
		data = append(data, runBlock[float32](DefaultBlockLen, w)...)
	}
	for _, hdr := range []int{flenc.HeaderU32, flenc.HeaderU8} {
		comp, _, err := CompressWithEps(nil, data[:len(data)-5], runEps, Options{HeaderBytes: hdr})
		if err != nil {
			t.Fatal(err)
		}
		m, offsets, err := BlockOffsets(comp)
		if err != nil {
			t.Fatal(err)
		}
		want := wireOffsets[float32](kinds, DefaultBlockLen, hdr)
		if m.Blocks() != len(kinds) || fmt.Sprint(offsets) != fmt.Sprint(want) || offsets[len(kinds)] != len(comp)-StreamHeaderSize {
			t.Fatalf("hdr=%d: offsets %v, want %v ending at %d", hdr, offsets, want, len(comp)-StreamHeaderSize)
		}
	}
}
