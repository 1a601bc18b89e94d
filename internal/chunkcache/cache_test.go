package chunkcache

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ceresz/internal/telemetry"
)

// key returns a Key landing in shard (b & 7) with a distinguishing tail.
func key(shardByte byte, id int) Key {
	var k Key
	k[0] = shardByte
	k[1] = byte(id)
	k[2] = byte(id >> 8)
	k[3] = byte(id >> 16)
	return k
}

func val(id, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(id + i)
	}
	return v
}

func TestMissCompleteHit(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(1<<20, reg)

	k := key(0, 1)
	h, err := c.Get(k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if h.Outcome() != Miss {
		t.Fatalf("first Get outcome = %v, want Miss", h.Outcome())
	}
	want := val(1, 128)
	h.Complete(want, Meta{Eps: 0.5, SavedBytes: 4096})

	h2, err := c.Get(k)
	if err != nil {
		t.Fatalf("Get after Complete: %v", err)
	}
	if h2.Outcome() != Hit {
		t.Fatalf("second Get outcome = %v, want Hit", h2.Outcome())
	}
	if !bytes.Equal(h2.Bytes(), want) {
		t.Fatalf("hit bytes differ from completed value")
	}
	if m := h2.Meta(); m.Eps != 0.5 || m.SavedBytes != 4096 {
		t.Fatalf("hit meta = %+v", m)
	}
	h2.Release()

	if got := reg.Counter("cache.misses").Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.Counter("cache.hits").Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.Counter("cache.bytes_saved").Value(); got != 4096 {
		t.Errorf("bytes_saved = %d, want 4096", got)
	}
	if got, want := c.Bytes(), int64(128+entryOverhead); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

func TestCoalescing(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(1<<20, reg)
	k := key(3, 7)

	owner, err := c.Get(k)
	if err != nil || owner.Outcome() != Miss {
		t.Fatalf("owner Get = (%v, %v), want Miss", owner.Outcome(), err)
	}

	const waiters = 8
	want := val(7, 256)
	results := make(chan []byte, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			h, err := c.Get(k)
			if err != nil {
				results <- nil
				return
			}
			if h.Outcome() != Coalesced && h.Outcome() != Hit {
				results <- nil
				return
			}
			cp := append([]byte(nil), h.Bytes()...)
			h.Release()
			results <- cp
		}()
	}
	started.Wait()
	owner.Complete(want, Meta{SavedBytes: 100})

	for i := 0; i < waiters; i++ {
		got := <-results
		if !bytes.Equal(got, want) {
			t.Fatalf("waiter %d got %d bytes, want the completed value", i, len(got))
		}
	}
	if got := reg.Counter("cache.misses").Value(); got != 1 {
		t.Errorf("misses = %d, want 1 (single computation)", got)
	}
	hits := reg.Counter("cache.hits").Value()
	coal := reg.Counter("cache.coalesced").Value()
	if hits+coal != waiters {
		t.Errorf("hits(%d)+coalesced(%d) = %d, want %d", hits, coal, hits+coal, waiters)
	}
}

func TestAbortWakesWaiters(t *testing.T) {
	c := New(1<<20, telemetry.NewRegistry())
	k := key(1, 9)

	owner, _ := c.Get(k)
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.Get(k)
			errs <- err
		}()
	}
	// A Get that arrives after Abort would own a fresh computation and
	// never finish, so abort only once all four are registered.
	for owner.waiters() < waiters {
		runtime.Gosched()
	}
	owner.Abort()

	for i := 0; i < waiters; i++ {
		if err := <-errs; err != ErrAborted {
			t.Fatalf("waiter %d err = %v, want ErrAborted", i, err)
		}
	}
	// The key must be gone: the next Get owns a fresh computation.
	h, err := c.Get(k)
	if err != nil || h.Outcome() != Miss {
		t.Fatalf("Get after Abort = (%v, %v), want Miss", h.Outcome(), err)
	}
	h.Complete(val(9, 16), Meta{})
	if c.Len() != 1 {
		t.Fatalf("Len after recompute = %d, want 1", c.Len())
	}
}

// perShardEntries returns a cap sized so one shard holds exactly n entries
// of valSize bytes.
func perShardEntries(n, valSize int) int64 {
	return int64(n) * int64(valSize+entryOverhead) * nShards
}

func TestEvictionHonorsCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	const valSize = 100
	c := New(perShardEntries(3, valSize), reg)

	// All keys land in shard 0; capacity is 3 entries there.
	for i := 0; i < 5; i++ {
		h, err := c.Get(key(0, i))
		if err != nil || h.Outcome() != Miss {
			t.Fatalf("insert %d: (%v, %v)", i, h.Outcome(), err)
		}
		h.Complete(val(i, valSize), Meta{})
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 after eviction", got)
	}
	if got, max := c.Bytes(), int64(3*(valSize+entryOverhead)); got > max {
		t.Errorf("Bytes = %d, exceeds shard budget %d", got, max)
	}
	if got := reg.Counter("cache.evictions").Value(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	// Oldest two (0, 1) are gone; newest three remain.
	for i := 0; i < 5; i++ {
		h, err := c.Get(key(0, i))
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		wantHit := i >= 2
		if (h.Outcome() == Hit) != wantHit {
			t.Errorf("probe %d outcome = %v, wantHit=%v", i, h.Outcome(), wantHit)
		}
		if h.Outcome() == Miss {
			h.Abort()
		} else {
			h.Release()
		}
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	const valSize = 64
	c := New(perShardEntries(3, valSize), telemetry.NewRegistry())

	for i := 0; i < 3; i++ {
		h, _ := c.Get(key(0, i))
		h.Complete(val(i, valSize), Meta{})
	}
	// Touch entry 0 so entry 1 becomes the LRU victim.
	h, _ := c.Get(key(0, 0))
	if h.Outcome() != Hit {
		t.Fatalf("touch outcome = %v, want Hit", h.Outcome())
	}
	h.Release()

	h, _ = c.Get(key(0, 3))
	h.Complete(val(3, valSize), Meta{})

	expect := map[int]Outcome{0: Hit, 1: Miss, 2: Hit, 3: Hit}
	for id, want := range expect {
		h, err := c.Get(key(0, id))
		if err != nil {
			t.Fatalf("probe %d: %v", id, err)
		}
		if h.Outcome() != want {
			t.Errorf("probe %d outcome = %v, want %v", id, h.Outcome(), want)
		}
		if h.Outcome() == Miss {
			h.Abort()
		} else {
			h.Release()
		}
	}
}

func TestPinnedEvictionKeepsBytes(t *testing.T) {
	const valSize = 64
	c := New(perShardEntries(2, valSize), telemetry.NewRegistry())

	h0, _ := c.Get(key(0, 0))
	want := val(0, valSize)
	h0.Complete(want, Meta{})

	// Pin entry 0, then churn the shard far past its budget so entry 0 is
	// evicted while pinned.
	pin, _ := c.Get(key(0, 0))
	if pin.Outcome() != Hit {
		t.Fatalf("pin outcome = %v", pin.Outcome())
	}
	for i := 1; i < 10; i++ {
		h, err := c.Get(key(0, i))
		if err != nil || h.Outcome() != Miss {
			t.Fatalf("churn %d: (%v, %v)", i, h.Outcome(), err)
		}
		h.Complete(val(i, valSize), Meta{})
	}
	// The pinned buffer must be untouched even though the entry is gone
	// from the index.
	if !bytes.Equal(pin.Bytes(), want) {
		t.Fatalf("pinned bytes corrupted during eviction churn")
	}
	probe, _ := c.Get(key(0, 0))
	if probe.Outcome() != Miss {
		t.Fatalf("evicted-while-pinned key still resident: %v", probe.Outcome())
	}
	probe.Abort()
	pin.Release() // recycles the zombie; must not panic or corrupt the shard

	// The shard keeps working after zombie recycling.
	h, _ := c.Get(key(0, 100))
	h.Complete(val(100, valSize), Meta{})
	h2, _ := c.Get(key(0, 100))
	if h2.Outcome() != Hit {
		t.Fatalf("post-zombie insert not retrievable: %v", h2.Outcome())
	}
	h2.Release()
}

// TestConcurrentStorm drives identical and distinct keys from many
// goroutines under churn, each through Admit first as the server does:
// every unique key must be computed exactly once per residency, hit bytes
// must match the computed value, and the byte budget must hold. Run with
// -race.
func TestConcurrentStorm(t *testing.T) {
	reg := telemetry.NewRegistry()
	const valSize = 256
	const uniqueKeys = 32
	// Budget holds roughly half the working set, forcing eviction churn.
	c := New(int64(uniqueKeys/2)*int64(valSize+entryOverhead), reg)

	var computations [uniqueKeys]atomic.Int64
	var inflight [uniqueKeys]atomic.Int64 // concurrent owners per key; must never exceed 1

	const goroutines = 16
	const opsPer = 400
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int) {
			defer wg.Done()
			rng := uint64(seed)*2654435761 + 1
			for op := 0; op < opsPer; op++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				id := int(rng>>33) % uniqueKeys
				k := key(byte(id), id)
				want := val(id, valSize)
				if !c.Admit(k[:], want) {
					continue // a first sighting: computed uncached
				}
				h, err := c.Get(k)
				if err != nil {
					t.Errorf("Get(%d): %v", id, err)
					return
				}
				switch h.Outcome() {
				case Miss:
					if n := inflight[id].Add(1); n != 1 {
						t.Errorf("key %d: %d concurrent owners", id, n)
					}
					computations[id].Add(1)
					// Complete publishes and unlocks before it returns; from
					// then on the key may be evicted and legitimately re-owned,
					// so ownership as this test counts it ends here.
					inflight[id].Add(-1)
					h.Complete(want, Meta{SavedBytes: valSize})
				case Hit, Coalesced:
					if !bytes.Equal(h.Bytes(), want) {
						t.Errorf("key %d: cached bytes differ", id)
					}
					h.Release()
				}
			}
		}(g)
	}
	wg.Wait()

	var budget int64
	for i := range c.shards {
		budget += c.shards[i].capBytes
	}
	if got, max := c.Bytes(), budget+int64(valSize+entryOverhead)*nShards; got > max {
		t.Errorf("Bytes = %d, exceeds budget slack %d", got, max)
	}
	var total int64
	for i := range computations {
		total += computations[i].Load()
	}
	served := reg.Counter("cache.hits").Value() + reg.Counter("cache.coalesced").Value()
	firsts := reg.Counter("cache.first_sightings").Value()
	if total+served+firsts != goroutines*opsPer {
		t.Errorf("computations(%d)+served(%d)+first sightings(%d) != ops(%d)", total, served, firsts, goroutines*opsPer)
	}
	if firsts < uniqueKeys {
		t.Errorf("%d first sightings of %d keys", firsts, uniqueKeys)
	}
	// With churn, recomputation after eviction is legal — but the storm
	// must still have meaningfully coalesced/hit.
	if served == 0 {
		t.Errorf("no cache hits in storm")
	}
}

// TestSteadyStateZeroAlloc locks in the recycling contract: once warmed, a
// churning shard (miss → Complete → evict) and the hit path perform no
// heap allocations, so the serving miss path can keep its per-chunk
// AllocsPerRun==0 guarantee with the cache enabled.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	const valSize = 512
	const cycle = 8
	c := New(perShardEntries(3, valSize), telemetry.NewRegistry())
	h := NewHasher()

	payload := val(1, valSize)
	var n int
	churn := func() {
		n++
		pre := h.Preamble()
		pre = append(pre, byte(n%cycle), 1, 2, 3)
		k := h.Key(pre, payload)
		k[0] = 0 // keep every key in shard 0 so eviction churns constantly
		hd, err := c.Get(k)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		switch hd.Outcome() {
		case Miss:
			hd.Complete(payload, Meta{SavedBytes: valSize})
		default:
			hd.Release()
		}
	}
	for i := 0; i < 64; i++ {
		churn() // warm the freelist, map slots and hasher
	}
	if got := testing.AllocsPerRun(200, churn); got != 0 {
		t.Fatalf("steady-state churn AllocsPerRun = %v, want 0", got)
	}

	// Pure hit path on a resident key.
	kHit := h.Key(h.Preamble(), payload)
	kHit[0] = 1
	if hd, _ := c.Get(kHit); hd.Outcome() == Miss {
		hd.Complete(payload, Meta{})
	}
	hit := func() {
		hd, err := c.Get(kHit)
		if err != nil || hd.Outcome() != Hit {
			t.Fatalf("hit path: (%v, %v)", hd.Outcome(), err)
		}
		if len(hd.Bytes()) != valSize {
			t.Fatalf("hit bytes len = %d", len(hd.Bytes()))
		}
		hd.Release()
	}
	hit()
	if got := testing.AllocsPerRun(200, hit); got != 0 {
		t.Fatalf("hit path AllocsPerRun = %v, want 0", got)
	}
}

func TestDisabledIsCallerGated(t *testing.T) {
	// -cache-bytes 0 means the server never constructs a Cache; this test
	// documents that New(0) still yields a tiny working cache (floor of 1
	// byte per shard) rather than a panic, so misconfiguration degrades to
	// immediate eviction, not a crash.
	c := New(0, telemetry.NewRegistry())
	h, err := c.Get(key(0, 1))
	if err != nil || h.Outcome() != Miss {
		t.Fatalf("Get = (%v, %v)", h.Outcome(), err)
	}
	h.Complete(val(1, 64), Meta{})
	probe, _ := c.Get(key(0, 1))
	if probe.Outcome() != Miss {
		t.Fatalf("zero-budget cache retained an entry")
	}
	probe.Abort()
}

func TestManyShardsDistribute(t *testing.T) {
	c := New(1<<20, telemetry.NewRegistry())
	h := NewHasher()
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		k := h.Key(h.Preamble(), []byte(fmt.Sprintf("chunk-%d", i)))
		seen[int(k[0])&(nShards-1)] = true
		hd, err := c.Get(k)
		if err != nil || hd.Outcome() != Miss {
			t.Fatalf("Get %d: (%v, %v)", i, hd.Outcome(), err)
		}
		hd.Complete([]byte("v"), Meta{})
	}
	if len(seen) != nShards {
		t.Errorf("256 hashed keys touched %d/%d shards", len(seen), nShards)
	}
	if c.Len() != 256 {
		t.Errorf("Len = %d, want 256", c.Len())
	}
}
