package chunkcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"ceresz/internal/chunkcache/keytest"
	"ceresz/internal/kerneltest"
	"ceresz/internal/telemetry"
)

// refKey is the key definition written out with nothing shared with the
// Hasher: sixteen sha256.Sum256 calls and one more over a message built
// with append.
func refKey(pre, data []byte) (Key, [lanes][sha256.Size]byte) {
	n := len(data)
	L := n / 1024 * 64
	msg := append([]byte(nil), pre...)
	msg = binary.LittleEndian.AppendUint64(msg, uint64(n))
	var digests [lanes][sha256.Size]byte
	for i := range digests {
		digests[i] = sha256.Sum256(data[i*L : (i+1)*L])
		msg = append(msg, digests[i][:]...)
	}
	msg = append(msg, data[lanes*L:]...)
	return sha256.Sum256(msg), digests
}

// checkKey holds one Key call to the definition: the root, and each lane
// digest the Hasher left in its scratch on its own.
func checkKey(t *testing.T, h *Hasher, pre, data []byte) Key {
	t.Helper()
	got := h.Key(pre, data)
	want, digests := refKey(pre, data)
	for i := range digests {
		if d := h.mid[8+i*sha256.Size:][:sha256.Size]; !bytes.Equal(d, digests[i][:]) {
			t.Fatalf("len %d: lane %d digest %x, want sha256.Sum256 of the lane %x", len(data), i, d, digests[i])
		}
	}
	if got != want {
		t.Fatalf("len %d: Key %x, want %x", len(data), got, want)
	}
	return got
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestLaneHashEveryLength walks every length across the first four
// super-blocks and a block beyond: no lanes, the lane length stepping from
// 64 to 256, every tail length at each.
func TestLaneHashEveryLength(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		h := NewHasher()
		buf := randomBytes(1, 4*1024+65)
		for n := 0; n <= len(buf); n++ {
			checkKey(t, h, []byte{KeyVersion, NSCompress, byte(n)}, buf[:n])
		}
	})
}

// TestLaneHashRandomLengths covers long lanes, and data starting at every
// offset within a cache line: the kernel's loads are unaligned ones.
func TestLaneHashRandomLengths(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		h := NewHasher()
		buf := randomBytes(3, 4<<20+64)
		lengths := []int{4 << 20, 256 << 10, 36 << 10}
		for i := 0; i < 12; i++ {
			lengths = append(lengths, rng.Intn(4<<20+1))
		}
		if testing.Short() || raceEnabled {
			lengths = []int{256 << 10, rng.Intn(1 << 20)}
		}
		for _, n := range lengths {
			off := rng.Intn(64)
			checkKey(t, h, h.Preamble(), buf[off:off+n])
		}
		for off := 0; off < 64; off++ {
			checkKey(t, h, h.Preamble(), buf[off:off+5*1024+off])
		}
	})
}

// TestHasherKeyStability is this package's third of the cross-tier pin
// (package keytest names the other two): for each committed request, the
// key definition applied to the request's preamble and first chunk gives
// the committed Key, from any Hasher, fresh or reused, on every kernel set
// — the same 32 bytes internal/server's test finds in the backend's cache
// and internal/cluster's test gets from the proxy's routeKey. The answers
// are committed because the implementations agreeing with each other and
// with refKey says nothing about a change made to all three.
func TestHasherKeyStability(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		reused := NewHasher()
		for _, r := range keytest.Requests() {
			want := Key(r.Key)
			if got := NewHasher().Key(r.Preamble, r.Data); got != want {
				t.Errorf("%s: fresh Hasher: Key %x, want %x", r.Name, got, want)
			}
			if got := reused.Key(append(reused.Preamble(), r.Preamble...), r.Data); got != want {
				t.Errorf("%s: reused Hasher: Key %x, want %x", r.Name, got, want)
			}

			pre := bytes.Clone(r.Preamble)
			pre[len(pre)-1]++
			if reused.Key(pre, r.Data) == want {
				t.Errorf("%s: a different preamble collided", r.Name)
			}
			data := bytes.Clone(r.Data)
			data[0]++
			if reused.Key(r.Preamble, data) == want {
				t.Errorf("%s: different data collided", r.Name)
			}
		}
	})
}

// TestPreambleLayout pins the bytes of the two cache namespaces' preambles,
// which the committed answers take as given.
func TestPreambleLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"compress f32 abs, block length 0 keyed as the default 32", AppendCompressPreamble(nil, 0, true, 0.001, 0),
			[]byte{2, 1, 0, 1, 0xfc, 0xa9, 0xf1, 0xd2, 0x4d, 0x62, 0x50, 0x3f, 32, 0, 0, 0}},
		{"compress f64 rel block 64", AppendCompressPreamble(nil, 1, false, 0.01, 64),
			[]byte{2, 1, 1, 0, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f, 64, 0, 0, 0}},
		{"decompress f32", AppendDecompressPreamble(nil, false), []byte{2, 2, 0}},
		{"decompress f64", AppendDecompressPreamble(nil, true), []byte{2, 2, 1}},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s: preamble % x, want % x", c.name, c.got, c.want)
		}
	}
}

// TestTreeKeepsInputsApart tries the confusions a tree could introduce and
// a single chain could not: each must still change the Key.
func TestTreeKeepsInputsApart(t *testing.T) {
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		h := NewHasher()
		const laneLen, tail = 3 * 64, 100
		data := randomBytes(4, lanes*laneLen+tail)
		pre := []byte{KeyVersion, NSDecompress, 0}
		seen := map[Key]string{}
		add := func(what string, pre, data []byte) {
			t.Helper()
			k := checkKey(t, h, pre, data)
			if prev, dup := seen[k]; dup {
				t.Fatalf("%s has the Key of %s", what, prev)
			}
			seen[k] = what
		}
		add("the input", pre, data)

		flipped := bytes.Clone(data)
		for i := 0; i <= lanes; i++ { // i == lanes is the tail
			at := i*laneLen + 17
			flipped[at] ^= 0x40
			add("a byte flipped in lane "+string(rune('a'+i)), pre, flipped)
			flipped[at] ^= 0x40
		}

		// One byte more or less never changes L here, so the lanes hash the
		// same: only n and the tail tell these apart.
		add("the input and a zero byte", pre, append(bytes.Clone(data), 0))
		add("the input less its last byte", pre, data[:len(data)-1])
		// Across a super-block boundary every lane changes.
		full := randomBytes(5, 2*1024)
		add("2047 bytes", pre, full[:2047])
		add("2048 bytes", pre, full)

		swapped := bytes.Clone(data)
		copy(swapped[2*laneLen:3*laneLen], data[9*laneLen:10*laneLen])
		copy(swapped[9*laneLen:10*laneLen], data[2*laneLen:3*laneLen])
		add("lanes 2 and 9 swapped", pre, swapped)

		// The same byte string split differently between preamble and data.
		add("the preamble's last byte moved into the data", pre[:2], append([]byte{pre[2]}, data...))
		add("the data's first byte moved into the preamble", append(bytes.Clone(pre), data[0]), data[1:])
		add("an empty input", pre, nil)
		add("an empty input under the other namespace", []byte{KeyVersion, NSCompress, 0}, nil)
	})
}

func TestHasherKeyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	kerneltest.Each(t, kernelSets, func(t *testing.T) {
		h := NewHasher()
		data := randomBytes(6, 36<<10+123)
		var sink Key
		key := func() {
			sink = h.Key(AppendCompressPreamble(h.Preamble(), 0, true, 1e-3, 0), data)
		}
		key()
		if got := testing.AllocsPerRun(100, key); got != 0 {
			t.Fatalf("Hasher.Key AllocsPerRun = %v, want 0", got)
		}
		_ = sink
	})
}

// FuzzLaneHash holds both implementations to the written-out definition on
// whatever preamble, data and starting offset the engine finds.
func FuzzLaneHash(f *testing.F) {
	f.Add([]byte{KeyVersion, NSCompress}, []byte("chunk"), uint8(0), uint16(0))
	f.Add([]byte{}, []byte{}, uint8(3), uint16(1024))
	f.Add([]byte{KeyVersion, NSDecompress, 1}, randomBytes(7, 3000), uint8(63), uint16(4096+65))
	f.Fuzz(func(t *testing.T, pre, seed []byte, off uint8, n uint16) {
		// Stretch the seed to n bytes so that a short corpus entry still
		// reaches several blocks per lane, and start it off-alignment.
		buf := make([]byte, int(off%64)+int(n))
		data := buf[off%64:]
		for i := range data {
			if len(seed) > 0 {
				data[i] = seed[i%len(seed)] + byte(i/len(seed))
			}
		}
		kerneltest.Each(t, kernelSets, func(t *testing.T) {
			h := NewHasher()
			checkKey(t, h, pre, data)
			checkKey(t, h, pre, seed)
		})
	})
}

func benchmarkKey(b *testing.B, n int) {
	h := NewHasher()
	data := randomBytes(8, n)
	b.SetBytes(int64(n))
	b.ResetTimer()
	var sink Key
	for i := 0; i < b.N; i++ {
		sink = h.Key(AppendCompressPreamble(h.Preamble(), 0, true, 1e-3, 0), data)
	}
	_ = sink
}

// The bench ledger's chunk sizes: one 256 KiB compress chunk, and the
// roughly 32 KiB frame payload it compresses to.
func BenchmarkHasherKey256K(b *testing.B) { benchmarkKey(b, 256<<10) }
func BenchmarkHasherKey32K(b *testing.B)  { benchmarkKey(b, 32<<10) }

// BenchmarkAdmit256K is what admission costs the 256 KiB chunk of
// BenchmarkHasherKey256K, and all a first sighting pays instead of the Key:
// the sampled fingerprint and one bucket of the table. SetBytes counts the
// whole chunk, so the two rows' MB/s compare directly.
func BenchmarkAdmit256K(b *testing.B) {
	c := New(256<<20, telemetry.NewRegistry())
	data := randomBytes(8, 256<<10)
	pre := AppendCompressPreamble(nil, 0, true, 1e-3, 0)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Admit(pre, data)
	}
}
