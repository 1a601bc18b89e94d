// Package chunkcache is a sharded, bounded-memory, content-addressed
// cache for codec results, keyed by a SHA-256 tree hash over the codec
// input and the parameters that shape the output (hasher.go gives the
// definition). It exists because CereSZ streams are
// block-independent by construction (the paper's row-parallel premise):
// one chunk's compressed frame depends only on that chunk's bytes and the
// codec options, so identical chunks recompressed across timesteps — the
// dominant pattern in scientific serving traffic — can be answered from
// memory instead of the codec.
//
// Design constraints, in the order they shaped the code:
//
//   - Admission on second sighting: a chunk is keyed and cached only once
//     it has been seen before (Admit, admit.go). A first sighting costs a
//     cheap sampled fingerprint instead of the tree key and is computed
//     uncached, so traffic that never repeats neither pays for the key nor
//     churns the cache. The fingerprint only decides admission; it is
//     never a correctness input.
//   - Coalescing: N concurrent requests for the same admitted chunk must
//     trigger exactly one computation. A pending entry carries a condition
//     variable (sharing the shard mutex); late arrivals wait on it instead
//     of recomputing.
//   - Zero-copy hits: a hit returns the cache's own buffer. Readers pin
//     the entry (a refcount under the shard mutex) while streaming it to
//     the wire, so eviction can never recycle bytes someone is writing.
//   - Zero-alloc steady state: entries recycle through a per-shard free
//     list and their value buffers through a per-shard spare, so a cache
//     churning at its byte cap on values of one size performs no
//     steady-state heap allocations on the miss path — the same contract
//     the serving hot path already keeps.
//   - Bounded memory: the byte budget is split evenly across shards and
//     enforced by LRU eviction at publish time. An entry is charged for
//     the capacity of the buffer it holds, not the length of its value,
//     and a shard keeps at most one spare buffer, so what the cache holds
//     is its budget plus one buffer per shard. Entries pinned at eviction
//     time become zombies: gone from the index immediately, recycled when
//     the last reader releases them.
package chunkcache

import (
	"errors"
	"sync"
	"sync/atomic"

	"ceresz/internal/telemetry"
)

// Key is a content address: the root of a sixteen-lane SHA-256 tree over a
// parameter preamble and the codec input bytes. Build one with a Hasher,
// whose Key method defines it.
type Key [32]byte

// Meta rides along with a cached value.
type Meta struct {
	// Eps is the resolved absolute error bound the value was produced
	// under (compress direction; informational elsewhere).
	Eps float64
	// SavedBytes is the codec input volume a hit avoids re-processing —
	// raw bytes on the compress direction, compressed payload bytes on
	// the decompress direction. Summed into the bytes-saved counter.
	SavedBytes int64
}

// Outcome classifies one Get.
type Outcome uint8

const (
	// Miss: the caller owns the computation and must Complete or Abort.
	Miss Outcome = iota
	// Hit: the value was resident; the handle pins it until Release.
	Hit
	// Coalesced: a concurrent owner computed the value while this caller
	// waited; the handle pins it until Release.
	Coalesced
)

// ErrAborted reports that the computation this Get coalesced onto was
// aborted by its owner. Callers should compute locally without caching —
// the failure is input-dependent and would recur.
var ErrAborted = errors.New("chunkcache: coalesced computation aborted")

// entry states.
const (
	statePending uint8 = iota
	stateReady
	stateFailed
)

// entryOverhead approximates the fixed per-entry cost charged against the
// byte budget on top of the value buffer: struct, map slot, key.
const entryOverhead = 192

// nShards splits the index and its locks. Power of two; modest so small
// byte budgets still leave each shard a useful share.
const nShards = 8

type entry struct {
	key   Key
	val   []byte
	meta  Meta
	state uint8
	// zombie: off the index (evicted or aborted) but still pinned or
	// awaited; the last releaser recycles it.
	zombie  bool
	refs    int32
	waiters int32
	cond    sync.Cond // L is the owning shard's mutex
	// LRU links while ready and resident; next doubles as the free-list
	// link when recycled.
	prev, next *entry
}

type shard struct {
	mu       sync.Mutex
	m        map[Key]*entry
	capBytes int64
	// bytes is what the resident entries are charged: each its buffer's
	// capacity plus entryOverhead.
	bytes int64
	// LRU of ready resident entries: head = most recent.
	head, tail *entry
	free       *entry // recycled entries, linked through next, holding no buffer
	// spare is one recycled value buffer, handed to the next miss. Keeping
	// one and no more is what bounds the memory a shard holds beyond its
	// budget to a single buffer.
	spare []byte
}

// Cache is the content-addressed store. A nil *Cache is not usable; the
// caller gates on construction (a zero byte budget means no cache).
type Cache struct {
	shards [nShards]shard
	door   doorkeeper
	// bytes and entries total the shards' resident charges and entries.
	// Each shard applies its own deltas under its own lock.
	bytes, entries atomic.Int64

	hits           *telemetry.Counter
	misses         *telemetry.Counter
	firstSightings *telemetry.Counter
	coalesced      *telemetry.Counter
	evictions      *telemetry.Counter
	savedBytes     *telemetry.Counter
	bytesG         *telemetry.Gauge
	entriesG       *telemetry.Gauge
}

// New returns a Cache with capBytes of total budget, registering its
// instruments (cache.hits, cache.misses, cache.first_sightings,
// cache.coalesced, cache.evictions, cache.bytes_saved counters;
// cache.bytes, cache.entries gauges) in reg. capBytes must be positive;
// reg may be nil for telemetry.Default.
func New(capBytes int64, reg *telemetry.Registry) *Cache {
	if reg == nil {
		reg = telemetry.Default
	}
	reg.Describe("cache.first_sightings", "Chunks seen for the first time: computed uncached, not keyed (also counted in misses).")
	c := &Cache{
		door:           newDoorkeeper(capBytes),
		hits:           reg.Counter("cache.hits"),
		misses:         reg.Counter("cache.misses"),
		firstSightings: reg.Counter("cache.first_sightings"),
		coalesced:      reg.Counter("cache.coalesced"),
		evictions:      reg.Counter("cache.evictions"),
		savedBytes:     reg.Counter("cache.bytes_saved"),
		bytesG:         reg.Gauge("cache.bytes"),
		entriesG:       reg.Gauge("cache.entries"),
	}
	per := capBytes / nShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*entry)
		c.shards[i].capBytes = per
	}
	return c
}

// Handle is the caller's side of one Get. The zero Handle is inert. On
// Hit/Coalesced the handle pins the cached bytes until Release; on Miss
// the caller must call exactly one of Complete or Abort.
type Handle struct {
	c       *Cache
	s       *shard
	e       *entry
	outcome Outcome
}

// Outcome reports how the Get resolved.
func (h Handle) Outcome() Outcome { return h.outcome }

// Pinned reports whether the handle holds a reference that Release must
// drop (Hit and Coalesced outcomes).
func (h Handle) Pinned() bool { return h.e != nil && h.outcome != Miss }

// Bytes returns the cached value. Valid only for Hit/Coalesced handles,
// and only until Release.
func (h Handle) Bytes() []byte { return h.e.val }

// Meta returns the cached value's metadata (Hit/Coalesced handles).
func (h Handle) Meta() Meta { return h.e.meta }

// Get resolves key: a resident value pins and returns immediately (Hit);
// a computation in flight blocks until it publishes (Coalesced); an
// absent key registers a pending entry and hands ownership to the caller
// (Miss). The error is non-nil only when a coalesced-onto computation was
// aborted — the caller should then compute locally without caching.
func (c *Cache) Get(key Key) (Handle, error) {
	s := &c.shards[int(key[0])&(nShards-1)]
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		if e.state == stateReady {
			s.touch(e)
			e.refs++
			s.mu.Unlock()
			c.hits.Add(1)
			c.savedBytes.Add(e.meta.SavedBytes)
			return Handle{c: c, s: s, e: e, outcome: Hit}, nil
		}
		// Pending: coalesce onto the in-flight computation. The waiter
		// count keeps the entry from being recycled out from under us.
		e.waiters++
		for e.state == statePending {
			e.cond.Wait()
		}
		e.waiters--
		if e.state == stateFailed {
			if e.zombie && e.refs == 0 && e.waiters == 0 {
				s.recycle(e)
			}
			s.mu.Unlock()
			return Handle{}, ErrAborted
		}
		e.refs++
		s.mu.Unlock()
		c.coalesced.Add(1)
		c.savedBytes.Add(e.meta.SavedBytes)
		return Handle{c: c, s: s, e: e, outcome: Coalesced}, nil
	}
	e := s.takeEntry()
	e.key = key
	e.state = statePending
	e.val, s.spare = s.spare, nil
	s.m[key] = e
	s.mu.Unlock()
	c.misses.Add(1)
	return Handle{c: c, s: s, e: e, outcome: Miss}, nil
}

// Complete publishes a Miss handle's value: val is copied into the
// entry's buffer, waiters wake, and the shard evicts from its LRU tail
// until back under budget. The handle is spent afterwards.
func (h Handle) Complete(val []byte, meta Meta) {
	e, s := h.e, h.s
	// The owner is the only goroutine touching a pending entry's buffer,
	// so the copy happens outside the lock. The entry is charged for the
	// buffer's capacity, so a recycled buffer is kept only if val fills at
	// least half of it; otherwise the value gets a buffer of its own size.
	if cap(e.val) < len(val) || cap(e.val) > 2*len(val) {
		e.val = make([]byte, len(val))
	}
	e.val = e.val[:len(val)]
	copy(e.val, val)
	e.meta = meta
	delta := charge(e) // the change in the shard's resident bytes
	s.mu.Lock()
	e.state = stateReady
	s.bytes += delta
	s.pushFront(e)
	e.cond.Broadcast()
	evicted := int64(0)
	for s.bytes > s.capBytes && s.tail != nil {
		ev := s.tail
		s.unlink(ev)
		delete(s.m, ev.key)
		size := charge(ev)
		s.bytes -= size
		delta -= size
		evicted++
		if ev.refs == 0 && ev.waiters == 0 {
			s.recycle(ev)
		} else {
			ev.zombie = true
		}
	}
	h.c.account(delta, 1-evicted)
	s.mu.Unlock()
	if evicted > 0 {
		h.c.evictions.Add(evicted)
	}
}

// charge is what a resident entry costs its shard's budget: the capacity
// of the buffer it holds, whatever the length of its value, plus the
// fixed overhead.
func charge(e *entry) int64 { return int64(cap(e.val)) + entryOverhead }

// Abort withdraws a Miss handle whose computation failed: the key leaves
// the index and waiters receive ErrAborted. The handle is spent.
func (h Handle) Abort() {
	e, s := h.e, h.s
	s.mu.Lock()
	e.state = stateFailed
	delete(s.m, e.key)
	e.zombie = true
	e.cond.Broadcast()
	if e.waiters == 0 && e.refs == 0 {
		s.recycle(e)
	}
	s.mu.Unlock()
}

// Release drops a Hit/Coalesced handle's pin. Safe on the zero Handle
// and on Miss handles (no-op), so callers can release unconditionally.
func (h Handle) Release() {
	if !h.Pinned() {
		return
	}
	e, s := h.e, h.s
	s.mu.Lock()
	e.refs--
	if e.zombie && e.refs == 0 && e.waiters == 0 {
		s.recycle(e)
	}
	s.mu.Unlock()
}

// account applies one shard's change in resident bytes and entries to the
// cache-wide totals and their gauges. Called under that shard's lock, so
// no other shard's lock is taken and no delta is lost.
func (c *Cache) account(bytes, entries int64) {
	c.bytes.Add(bytes)
	c.entries.Add(entries)
	c.bytesG.Add(bytes)
	c.entriesG.Add(entries)
}

// Bytes reports what the resident entries are charged across all shards:
// their buffers' capacities plus per-entry overhead.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Len reports the resident entry count across all shards.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// takeEntry pops the free list or allocates. Called under s.mu.
func (s *shard) takeEntry() *entry {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		e.zombie = false
		e.refs = 0
		e.waiters = 0
		return e
	}
	e := &entry{}
	e.cond.L = &s.mu
	return e
}

// recycle pushes an unlinked, unpinned entry onto the free list. Its value
// buffer becomes the shard's spare if the shard has none, and is left to
// the collector otherwise. Called under s.mu.
func (s *shard) recycle(e *entry) {
	if cap(s.spare) == 0 {
		s.spare = e.val[:0]
	}
	e.val = nil
	e.prev = nil
	e.next = s.free
	s.free = e
}

// pushFront links e at the LRU head. Called under s.mu.
func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the LRU. Called under s.mu.
func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch moves a resident entry to the LRU head. Called under s.mu.
func (s *shard) touch(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
