// Package cluster is the fleet tier over cereszd (internal/server): a
// consistent-hash shard router with health-checked failover, fronting N
// backends as one logical compression service.
//
// The paper scales error-bounded compression by fanning independent
// blocks across hundreds of thousands of PEs; this package mirrors that
// one level up, fanning independent requests across backend processes.
// Decompress requests route by the key internal/chunkcache addresses
// decoded frames with — chunkcache.Hasher.Key, a sixteen-lane SHA-256 tree
// over the key preamble and the first frame's payload — so a frame's route
// and its cache key agree (a proxy and a backend built at different
// chunkcache.KeyVersions lose that affinity, never correctness: the route
// only picks a node): the proxy concentrates repeated frames on the node
// whose cache already holds them, turning cluster-wide repeats into warm
// single-node hits instead of N cold copies. Compress and bundle requests,
// which no backend caches, go to a random point of the weighted ring
// without being read.
//
// The pieces, front to back:
//
//   - Ring (this file): virtual-node consistent hashing, deterministic in
//     the backend set (any insertion order builds the same ring), with
//     per-backend weights so degraded nodes shed share without leaving;
//   - Health (health.go): background readiness pollers that parse the
//     server's degraded detail, eject dead backends, weight down degraded
//     ones and rebuild the ring without touching in-flight requests;
//   - Proxy (proxy.go): the streaming HTTP front end — one bounded
//     admission semaphore (429+Retry-After before any backend sees the
//     request), bounded single-failover retry and per-backend RED
//     telemetry.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"ceresz/internal/chunkcache"
)

// ringSalt prefixes every virtual-node hash so ring placement is not
// confusable with any other SHA-256 use of the backend name.
const ringSalt = "ceresz-ring\x00"

// Node is one ring member: a backend identified by Index into the
// proxy's fixed backend table, named by its canonical URL, carrying
// Weight virtual nodes.
type Node struct {
	Index  int
	Name   string
	Weight int
}

// ringEntry is one virtual node on the circle.
type ringEntry struct {
	hash    uint64
	backend int // index into the proxy's backend table
}

// Ring is an immutable consistent-hash ring. Build one with BuildRing and
// swap it atomically; lookups are lock-free reads of sorted entries.
type Ring struct {
	entries []ringEntry
	// members lists the distinct backend indices on the ring, sorted, for
	// owner walks that must terminate and for share accounting.
	members []int
}

// BuildRing places Weight virtual nodes per member on the circle. The
// result is a pure function of the (Name, Weight) multiset: virtual-node
// positions depend only on the member's name and replica ordinal, and
// ties sort by name, so any insertion order yields the same ring — the
// property that lets every proxy instance (and a restarted one) route
// identically from the same backend list. Members with Weight <= 0 are
// left off the ring entirely.
func BuildRing(nodes []Node) *Ring {
	r := &Ring{}
	var h [sha256.Size]byte
	var buf []byte
	for _, n := range nodes {
		if n.Weight <= 0 {
			continue
		}
		r.members = append(r.members, n.Index)
		for v := 0; v < n.Weight; v++ {
			buf = append(buf[:0], ringSalt...)
			buf = append(buf, n.Name...)
			buf = append(buf, 0)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			h = sha256.Sum256(buf)
			r.entries = append(r.entries, ringEntry{
				hash:    binary.BigEndian.Uint64(h[:8]),
				backend: n.Index,
			})
		}
	}
	// Sort by position; break (astronomically unlikely) hash ties by
	// backend index so equal rings compare equal element-wise.
	sort.Slice(r.entries, func(i, j int) bool {
		if r.entries[i].hash != r.entries[j].hash {
			return r.entries[i].hash < r.entries[j].hash
		}
		return r.entries[i].backend < r.entries[j].backend
	})
	sort.Ints(r.members)
	return r
}

// Len reports the virtual-node count.
func (r *Ring) Len() int { return len(r.entries) }

// Members returns the distinct backend indices on the ring (sorted; do
// not mutate).
func (r *Ring) Members() []int { return r.members }

// owner returns the index of the first entry at or clockwise of h.
func (r *Ring) owner(h uint64) int {
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	if i == len(r.entries) {
		i = 0
	}
	return i
}

// Owner resolves the backend owning key. Returns -1 on an empty ring.
func (r *Ring) Owner(key chunkcache.Key) int {
	if len(r.entries) == 0 {
		return -1
	}
	return r.entries[r.owner(chunkcache.RingHash(key))].backend
}

// Owners returns up to n distinct backends walking clockwise from key:
// the owner first, then each successive failover candidate. The walk is
// deterministic, so every proxy agrees on the failover order too.
func (r *Ring) Owners(key chunkcache.Key, n int) []int {
	if len(r.entries) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	start := r.owner(chunkcache.RingHash(key))
	for i := 0; i < len(r.entries) && len(out) < n; i++ {
		b := r.entries[(start+i)%len(r.entries)].backend
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// Shares reports the fraction of the 64-bit hash space each backend on
// the ring owns, keyed by backend index — the expected share of
// digest-uniform traffic, surfaced by /debug/ring so a skewed build is
// visible before it becomes a hot spot.
func (r *Ring) Shares() map[int]float64 {
	out := make(map[int]float64, len(r.members))
	if len(r.entries) == 0 {
		return out
	}
	if len(r.entries) == 1 {
		out[r.entries[0].backend] = 1
		return out
	}
	const span = float64(1<<63) * 2 // 2^64 without overflow
	prev := r.entries[len(r.entries)-1].hash
	for _, e := range r.entries {
		arc := e.hash - prev // wraps correctly in uint64 arithmetic
		out[e.backend] += float64(arc) / span
		prev = e.hash
	}
	return out
}

// Equal reports whether two rings place identical virtual nodes — the
// determinism property tests assert.
func (r *Ring) Equal(o *Ring) bool {
	if len(r.entries) != len(o.entries) {
		return false
	}
	for i := range r.entries {
		if r.entries[i] != o.entries[i] {
			return false
		}
	}
	return true
}
