package chunkcache

import (
	"bytes"
	"testing"

	"ceresz/internal/telemetry"
)

// TestAdmitSecondSighting: a chunk is admitted from its second sighting on,
// and whatever the fingerprint reads — preamble, length, each sampled word,
// every byte of a short chunk — makes another chunk a first sighting.
func TestAdmitSecondSighting(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(1<<20, reg)
	pre := AppendCompressPreamble(nil, 0, true, 1e-3, 0)
	data := randomBytes(9, 256<<10)
	stride := (len(data) - 8) / sampleWords

	if c.Admit(pre, data) {
		t.Fatal("first sighting admitted")
	}
	for i := 0; i < 3; i++ {
		if !c.Admit(pre, data) {
			t.Fatalf("sighting %d not admitted", i+2)
		}
	}
	firsts := 1
	fresh := func(what string, pre, data []byte) {
		t.Helper()
		firsts++
		if c.Admit(pre, data) {
			t.Errorf("%s: admitted on its first sighting", what)
		}
		if !c.Admit(pre, data) {
			t.Errorf("%s: not admitted on its second sighting", what)
		}
	}
	other := bytes.Clone(pre)
	other[len(other)-1]++
	fresh("another preamble", other, data)
	fresh("one byte shorter", pre, data[:len(data)-1])
	for _, at := range []int{0, 7, stride, 17*stride + 5, 63 * stride, len(data) - 1} {
		d := bytes.Clone(data)
		d[at]++
		fresh("a changed sampled byte", pre, d)
	}
	short := randomBytes(10, sampleBytes)
	fresh("a short chunk", pre, short)
	for _, at := range []int{0, 100, sampleBytes - 1} {
		d := bytes.Clone(short)
		d[at]++
		fresh("a short chunk with any byte changed", pre, d)
	}
	fresh("an empty chunk", pre, nil)

	// Bytes between sampled words are not read: such a chunk is a false
	// "seen", which only costs it the Key.
	d := bytes.Clone(data)
	d[8]++
	d[stride+stride/2]++
	if !c.Admit(pre, d) {
		t.Error("a chunk differing only between sampled words was not taken for a second sighting")
	}

	if got := reg.Counter("cache.first_sightings").Value(); got != int64(firsts) {
		t.Errorf("first_sightings = %d, want %d", got, firsts)
	}
	if got := reg.Counter("cache.misses").Value(); got != int64(firsts) {
		t.Errorf("misses = %d, want %d: a first sighting runs the codec", got, firsts)
	}
}

// TestDoorkeeperSize pins the table to the budget: 64 Ki slots for 256 MiB,
// with a floor for small caches and a ceiling for huge ones.
func TestDoorkeeperSize(t *testing.T) {
	for _, c := range []struct {
		budget int64
		slots  int
	}{
		{0, doorMinSlots},
		{8 << 20, doorMinSlots},
		{256 << 20, 64 << 10},
		{300 << 20, 128 << 10},
		{1 << 40, doorMaxSlots},
	} {
		if got := doorSlots(c.budget); got != c.slots {
			t.Errorf("budget %d: %d slots, want %d", c.budget, got, c.slots)
		}
	}
	for _, budget := range []int64{0, 256 << 20} {
		d := newDoorkeeper(budget)
		if buckets := uint64(len(d.slots) / doorWays); ^uint64(0)>>d.shift != buckets-1 {
			t.Errorf("budget %d: shift %d does not index %d buckets", budget, d.shift, buckets)
		}
	}
}

// TestAdmitRecurringChunksStayAdmitted: a fingerprint already in its
// bucket is never written again, so recurring chunks stay admitted unless
// more than doorWays of them share a bucket. At a quarter of a chunk per
// bucket that does not happen; in a direct-mapped table of the same size,
// two of them would share a slot more often than not, and overwrite each
// other on every sighting.
func TestAdmitRecurringChunksStayAdmitted(t *testing.T) {
	c := New(0, telemetry.NewRegistry())
	chunks := make([][]byte, len(c.door.slots)/doorWays/4)
	for i := range chunks {
		chunks[i] = randomBytes(int64(100+i), 64)
		c.Admit(nil, chunks[i])
	}
	for round := 0; round < 3; round++ {
		for i, d := range chunks {
			if !c.Admit(nil, d) {
				t.Fatalf("round %d: chunk %d lost its sighting with %d chunks in %d buckets", round, i, len(chunks), len(c.door.slots)/doorWays)
			}
		}
	}
}

func TestAdmitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	c := New(1<<20, telemetry.NewRegistry())
	pre := AppendCompressPreamble(nil, 0, true, 1e-3, 0)
	long, short := randomBytes(11, 36<<10), randomBytes(12, 100)
	var n int
	admit := func() {
		n++
		long[0] = byte(n) // alternate first and later sightings
		c.Admit(pre, long)
		c.Admit(pre, short)
	}
	admit()
	if got := testing.AllocsPerRun(100, admit); got != 0 {
		t.Fatalf("Admit AllocsPerRun = %v, want 0", got)
	}
}
