package chunkcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ceresz/internal/telemetry"
)

// held is the value-buffer memory a shard keeps: the capacity of every
// resident entry's buffer, every free entry's, and the spare's. Called
// under s.mu.
func (s *shard) held() int64 {
	n := int64(cap(s.spare))
	for e := s.head; e != nil; e = e.next {
		n += int64(cap(e.val))
	}
	for e := s.free; e != nil; e = e.next {
		n += int64(cap(e.val))
	}
	return n
}

// checkShards checks every structural invariant the cache keeps between
// calls, and that no shard holds more than its budget plus one buffer of
// at most maxVal bytes.
func checkShards(t *testing.T, c *Cache, maxVal int) {
	t.Helper()
	var bytes, entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var n, charged int64
		var prev *entry
		for e := s.head; e != nil; e = e.next {
			if e.prev != prev || e.state != stateReady || e.zombie || s.m[e.key] != e {
				s.mu.Unlock()
				t.Fatalf("shard %d: LRU entry %x is not a linked, ready, indexed entry", i, e.key[:4])
			}
			prev = e
			n++
			charged += int64(cap(e.val)) + entryOverhead
		}
		if s.tail != prev {
			s.mu.Unlock()
			t.Fatalf("shard %d: tail is not the last LRU entry", i)
		}
		pending := 0
		for _, e := range s.m {
			if e.state == statePending {
				pending++
			}
		}
		for e := s.free; e != nil; e = e.next {
			if e.val != nil || e.refs != 0 || e.waiters != 0 {
				s.mu.Unlock()
				t.Fatalf("shard %d: a free entry holds a buffer, a pin or a waiter", i)
			}
		}
		held := s.held()
		s.mu.Unlock()
		switch {
		case int64(len(s.m)) != n+int64(pending):
			t.Fatalf("shard %d: %d indexed entries, %d resident and %d pending", i, len(s.m), n, pending)
		case s.bytes != charged:
			t.Fatalf("shard %d: bytes %d, resident entries charged %d", i, s.bytes, charged)
		case s.bytes > s.capBytes:
			t.Fatalf("shard %d: %d resident bytes over a budget of %d", i, s.bytes, s.capBytes)
		case held > s.capBytes+int64(maxVal):
			t.Fatalf("shard %d holds %d buffer bytes, over its budget %d plus one value of %d", i, held, s.capBytes, maxVal)
		}
		bytes += s.bytes
		entries += n
	}
	if c.Bytes() != bytes || int64(c.Len()) != entries {
		t.Fatalf("totals %d bytes in %d entries, shards %d in %d", c.Bytes(), c.Len(), bytes, entries)
	}
}

// TestMixedSizeChurnHoldsBudget churns one cache with values of sizes far
// apart, as the compress and decompress directions share a cache: 256 KiB
// decoded chunks and their ~36 KiB frames, scaled down, plus values near
// the large size that reuse its buffers. The buffers kept — resident, free
// and spare — must stay within the budget plus one buffer per shard.
// Charging an entry its value's length while a recycled buffer keeps its
// old capacity, or recycling every evicted buffer, holds more.
func TestMixedSizeChurnHoldsBudget(t *testing.T) {
	const large = 8 << 10
	c := New(nShards*32<<10, telemetry.NewRegistry())
	rng := rand.New(rand.NewSource(1))
	values := [][]byte{val(1, 1<<10), val(2, 1<<10), val(3, 5<<10), val(4, 6<<10), val(5, 7<<10), val(6, large)}
	for i := 0; i < 4000; i++ {
		h, err := c.Get(key(byte(rng.Intn(nShards)), i))
		if err != nil || h.Outcome() != Miss {
			t.Fatalf("op %d: fresh key did not miss: (%v, %v)", i, h.Outcome(), err)
		}
		h.Complete(values[rng.Intn(len(values))], Meta{})
	}
	checkShards(t, c, large)
}

// TestCacheModel runs seeded random operations against a map oracle:
// Admit, Get, Complete, Abort, Release, coalesced waits that end either
// way, and enough churn over values of mixed sizes that evicted, pinned
// (zombie) and recycled entries and buffers all come and go. After every
// step the structure and the byte budget are checked, and every pinned
// value must still hold its own bytes.
func TestCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed) })
	}
}

func runModel(t *testing.T, seed int64) {
	const ids, steps, maxVal = 48, 3000, 6 << 10
	// Key id's value is a pure function of the id, as a cached codec
	// result is of its key, with sizes from 0 to maxVal.
	values := make([][]byte, ids)
	for id := range values {
		values[id] = val(id, []int{0, 40, 700, 3000, maxVal}[id%5])
	}
	modelVal := func(id int) []byte { return values[id] }
	reg := telemetry.NewRegistry()
	c := New(nShards*8<<10, reg)
	rng := rand.New(rand.NewSource(seed))

	type pin struct {
		id int
		h  Handle
	}
	var (
		pins    []pin
		owned   = map[int]Handle{} // pending Misses the model must Complete or Abort
		cached  = map[int]bool{}   // ids that may be resident: Completed and not since Aborted
		sighted = map[int]bool{}
		want    = map[string]int64{}
		zombies int // steps that ended with a pinned entry evicted
	)
	// pickOwned picks an owned id in id order, not map order, so that a
	// seed replays.
	pickOwned := func() int {
		i := rng.Intn(len(owned))
		for id := 0; ; id++ {
			if _, ok := owned[id]; ok {
				if i == 0 {
					return id
				}
				i--
			}
		}
	}
	// Ids land in shards id%nShards: six per shard, against a shard budget
	// of 8 KiB that holds one of the largest values or a few smaller ones.
	keyOf := func(id int) Key { return key(byte(id), id) }
	complete := func(id int, h Handle) {
		h.Complete(modelVal(id), Meta{SavedBytes: int64(id)})
		cached[id] = true
		delete(owned, id)
	}
	abort := func(id int, h Handle) {
		h.Abort()
		cached[id] = false
		delete(owned, id)
	}

	for step := 0; step < steps; step++ {
		if len(pins) > 16 {
			pins[0].h.Release()
			pins = pins[1:]
		}
		id := rng.Intn(ids)
		switch op := rng.Intn(10); {
		case op == 0: // Admit
			data := modelVal(id)
			if got := c.Admit([]byte{byte(id)}, data); got != sighted[id] {
				t.Fatalf("step %d: Admit(%d) = %v after %v sightings", step, id, got, sighted[id])
			}
			if !sighted[id] {
				want["misses"]++
				want["first"]++
			}
			sighted[id] = true
		case op <= 4: // Get
			if _, mine := owned[id]; mine {
				continue // a Get on our own pending key would wait for us
			}
			h, err := c.Get(keyOf(id))
			if err != nil {
				t.Fatalf("step %d: Get(%d): %v", step, id, err)
			}
			switch h.Outcome() {
			case Miss:
				want["misses"]++
				owned[id] = h
			case Hit:
				want["hits"]++
				if !cached[id] {
					t.Fatalf("step %d: id %d hit, but it was never completed or was aborted since", step, id)
				}
				if !bytes.Equal(h.Bytes(), modelVal(id)) || h.Meta().SavedBytes != int64(id) {
					t.Fatalf("step %d: id %d hit another value", step, id)
				}
				pins = append(pins, pin{id, h})
			default:
				t.Fatalf("step %d: Get(%d) coalesced with no computation in flight", step, id)
			}
		case op <= 6 && len(owned) > 0: // Complete
			id := pickOwned()
			complete(id, owned[id])
		case op == 7 && len(owned) > 0: // Abort
			id := pickOwned()
			abort(id, owned[id])
		case op == 8 && len(pins) > 0: // Release
			i := rng.Intn(len(pins))
			pins[i].h.Release()
			pins = append(pins[:i], pins[i+1:]...)
		case op == 9 && len(owned) > 0: // coalesced waits on a pending key
			id := pickOwned()
			owner := owned[id]
			n := 1 + rng.Intn(3)
			type result struct {
				h   Handle
				err error
			}
			results := make(chan result, n)
			for i := 0; i < n; i++ {
				go func() {
					h, err := c.Get(keyOf(id))
					results <- result{h, err}
				}()
			}
			for owner.waiters() < n {
				runtime.Gosched()
			}
			ok := rng.Intn(2) == 0
			if ok {
				complete(id, owner)
			} else {
				abort(id, owner)
			}
			for i := 0; i < n; i++ {
				r := <-results
				switch {
				case !ok && r.err != ErrAborted:
					t.Fatalf("step %d: a waiter on aborted id %d got (%v, %v)", step, id, r.h.Outcome(), r.err)
				case ok && (r.err != nil || r.h.Outcome() != Coalesced || !bytes.Equal(r.h.Bytes(), modelVal(id))):
					t.Fatalf("step %d: a waiter on id %d got (%v, %v), not its value", step, id, r.h.Outcome(), r.err)
				case ok:
					want["coalesced"]++
					pins = append(pins, pin{id, r.h})
				}
			}
		}
		checkShards(t, c, maxVal)
		zombie := false
		for _, p := range pins {
			if !bytes.Equal(p.h.Bytes(), modelVal(p.id)) {
				t.Fatalf("step %d: pinned id %d no longer holds its value", step, p.id)
			}
			p.h.s.mu.Lock()
			zombie = zombie || p.h.e.zombie
			p.h.s.mu.Unlock()
		}
		if zombie {
			zombies++
		}
	}

	for id, h := range owned {
		complete(id, h)
	}
	for _, p := range pins {
		p.h.Release()
	}
	checkShards(t, c, maxVal)
	for name, counter := range map[string]string{"misses": "cache.misses", "first": "cache.first_sightings",
		"hits": "cache.hits", "coalesced": "cache.coalesced"} {
		if got := reg.Counter(counter).Value(); got != want[name] {
			t.Errorf("%s = %d, the model counted %d", counter, got, want[name])
		}
	}
	evictions := reg.Counter("cache.evictions").Value()
	t.Logf("%v, %d evictions, %d steps ended with a zombie", want, evictions, zombies)
	if want["hits"] == 0 || want["coalesced"] == 0 || evictions == 0 || zombies == 0 {
		t.Error("the run never hit, coalesced, evicted, or evicted a pinned entry")
	}
}
