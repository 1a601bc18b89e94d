package wse

import (
	"fmt"
	"math/bits"
)

// Event-queue machinery for the discrete-event engine.
//
// Events are ordered by the key (at, src, seq): simulated cycle first,
// then the origin PE's linear index (host injections use origin -1, which
// orders them before any fabric event in the same cycle), then the
// origin's own push counter. Each origin stamps its pushes with a
// strictly increasing seq; a host injection's seq is its row in the high
// 32 bits and its index among the row's injections in the low 32, so host
// keys order by (at, row, index within row). The key is a total order
// computed from per-PE and per-row behavior alone — it does not depend on
// how the run is partitioned, which is what lets the row-sharded engine
// reproduce the sequential engine's results bit for bit (see DESIGN.md,
// "Simulator engine").
//
// The queue is a calendar queue (Brown, CACM 1988): a ring of one-cycle
// buckets covering the calWindow cycles from the last popped cycle on,
// with a bitmap of the non-empty buckets, so a pop finds the next event
// with a few TrailingZeros64 instead of a sift through a heap. A key
// further ahead than the window goes to a 4-ary min-heap, the overflow,
// and every pop takes the smaller of the two heads.
//
// A queued item is only that key plus a slot: a 24-byte value with no
// pointers, so moving it is a plain three-word copy with no GC write
// barrier, and the buckets link their nodes by int32 index, not by
// pointer. A delivery's Message lives in the engine's msgSlab and never
// moves while the event is pending: the key's slot indexes it, the
// destination PE's mailbox queues the same slot, a router pass-through
// rewrites the slot in place and pushes it again, and the slot returns to
// the slab's free list when the message is dispatched. A ready event (the
// PE's processor came free) has no message; its slot field holds ^pe,
// which is negative for every PE index.

// evKey is one scheduled event.
type evKey struct {
	at   int64
	seq  int64 // origin's push counter; row<<32 | index for host injections
	src  int32 // origin PE linear index; hostSrc for host injections
	slot int32 // ≥ 0: msgSlab slot of a delivery; < 0: ^pe of a ready event
}

// before orders events by (at, src, seq).
func (k *evKey) before(o *evKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.src != o.src {
		return k.src < o.src
	}
	return k.seq < o.seq
}

// readyKey is the key of PE pe's ready event.
func readyKey(at int64, pe int32, seq int64) evKey {
	return evKey{at: at, seq: seq, src: pe, slot: ^pe}
}

// calWindow is how many cycles past the last pop the calendar's ring
// covers. A power of two, so a cycle's bucket is its low bits. On the
// mapping's round trips 1 % (64×64) to 18 % (128×16, two-PE pipelines)
// of pushes land past it and go to the overflow heap; a 16384-cycle
// window measured no faster.
const calWindow = 4096

// calNode is one key in a bucket's list.
type calNode struct {
	key  evKey
	next int32 // next node in the bucket, or in the free list; -1 ends either
}

// calQueue is the engine's event queue: a calendar of one-cycle buckets
// over [base, base+calWindow), plus the overflow heap for keys at or
// past the window's end. Every bucket holds keys of one cycle only, so
// its list is kept sorted by (src, seq), and popping the ring's minimum
// is taking the head of the first non-empty bucket at or after base's.
//
// base is the cycle of the last pop. An event loop never pushes a key
// before the event it is processing, so every key still queued is at or
// after base, and the ring's bucket index is unambiguous.
type calQueue struct {
	base  int64
	n     int // keys in the ring
	free  int32
	nodes []calNode
	over  eventHeap

	// head[b] and tail[b] are bucket b's first and last node, and
	// last[b] the node pushed into it most recently (-1 once popped),
	// all valid while its bit in full is set.
	head, tail, last [calWindow]int32
	full             [calWindow / 64]uint64
}

// init sizes an empty queue's node pool and overflow heap for room keys
// each.
func (q *calQueue) init(room int) {
	q.nodes = make([]calNode, 0, room)
	q.over.keys = make([]evKey, 0, room)
	q.reset()
}

// reset empties the queue and moves base back to cycle 0, keeping its
// storage. An engine calls it before each shard it loads, also after a
// shard that stopped early with keys still queued.
func (q *calQueue) reset() {
	q.base, q.n, q.free = 0, 0, -1
	q.nodes = q.nodes[:0]
	q.over.keys = q.over.keys[:0]
	q.full = [calWindow / 64]uint64{}
}

func (q *calQueue) len() int { return q.n + q.over.len() }

func (q *calQueue) push(k evKey) {
	if uint64(k.at-q.base) >= calWindow {
		if k.at < q.base {
			panic(fmt.Sprintf("wse: event at cycle %d pushed after a pop at cycle %d", k.at, q.base))
		}
		q.over.push(k)
		return
	}
	i := q.free
	if i >= 0 {
		q.free = q.nodes[i].next
		q.nodes[i].key = k
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, calNode{key: k})
	}
	q.n++
	b := int(k.at) & (calWindow - 1)
	word, bit := b>>6, uint64(1)<<(b&63)
	if q.full[word]&bit == 0 {
		q.full[word] |= bit
		q.nodes[i].next = -1
		q.head[b], q.tail[b], q.last[b] = i, i, i
		return
	}
	l := q.last[b]
	q.last[b] = i
	if t := q.tail[b]; !k.before(&q.nodes[t].key) {
		q.nodes[i].next = -1
		q.nodes[t].next = i
		q.tail[b] = i
		return
	}
	if h := q.head[b]; k.before(&q.nodes[h].key) {
		q.nodes[i].next = h
		q.head[b] = i
		return
	}
	// A cycle's keys arrive as runs in (src, seq) order, one run per
	// cycle of pushing PEs, so the walk starts at the previous push when
	// the new key follows it.
	p := q.head[b]
	if l >= 0 && q.nodes[l].key.before(&k) {
		p = l
	}
	for {
		nx := q.nodes[p].next
		if k.before(&q.nodes[nx].key) {
			q.nodes[i].next = nx
			q.nodes[p].next = i
			return
		}
		p = nx
	}
}

// pop removes and returns the smallest key; the queue must not be empty.
func (q *calQueue) pop() evKey {
	if q.n == 0 {
		k := q.over.pop()
		q.base = k.at
		return k
	}
	b := q.first()
	h := q.head[b]
	nd := &q.nodes[h]
	if q.over.len() > 0 && q.over.keys[0].before(&nd.key) {
		k := q.over.pop()
		q.base = k.at
		return k
	}
	k := nd.key
	if h == q.tail[b] {
		q.full[b>>6] &^= 1 << (b & 63)
	} else {
		q.head[b] = nd.next
	}
	if h == q.last[b] {
		q.last[b] = -1
	}
	nd.next = q.free
	q.free = h
	q.n--
	q.base = k.at
	return k
}

// first returns the first non-empty bucket at or after base's, in ring
// order; the ring must not be empty.
func (q *calQueue) first() int {
	b := int(q.base) & (calWindow - 1)
	word := b >> 6
	if x := q.full[word] >> (b & 63); x != 0 {
		return b + bits.TrailingZeros64(x)
	}
	// The last step comes back to base's own word, whose bits below
	// base's are the cycles that wrapped round the ring.
	for i := 1; i <= len(q.full); i++ {
		w := (word + i) & (len(q.full) - 1)
		if x := q.full[w]; x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	panic("wse: calendar ring counted keys it does not hold")
}

// eventHeap is a 4-ary min-heap of event keys, the calendar queue's
// overflow. Unlike container/heap, push and pop never box (heap.Push
// takes `any`, which allocates on every call), and the 4-wide fan-out
// halves the tree depth, trading a few extra comparisons per level for
// fewer cache-missing element moves.
type eventHeap struct {
	keys []evKey
}

func (h *eventHeap) len() int { return len(h.keys) }

func (h *eventHeap) push(k evKey) {
	h.keys = append(h.keys, k)
	i := len(h.keys) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !k.before(&h.keys[p]) {
			break
		}
		h.keys[i] = h.keys[p]
		i = p
	}
	h.keys[i] = k
}

func (h *eventHeap) pop() evKey {
	top := h.keys[0]
	n := len(h.keys) - 1
	last := h.keys[n]
	h.keys = h.keys[:n]
	if n > 0 {
		h.siftDown(last, 0, n)
	}
	return top
}

// siftDown places k at index i, moving smaller children up as it goes.
func (h *eventHeap) siftDown(k evKey, i, n int) {
	keys := h.keys[:n]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, mk := c, &keys[c]
		for j := c + 1; j < min(c+4, n); j++ {
			if keys[j].before(mk) {
				m, mk = j, &keys[j]
			}
		}
		if !mk.before(&k) {
			break
		}
		keys[i] = *mk
		i = m
	}
	keys[i] = k
}

// slabMsg is one pending delivery: the message, its destination PE and,
// while it waits in that PE's mailbox, the slot queued after it.
type slabMsg struct {
	msg  Message
	pe   int32 // destination PE linear index
	next int32 // next slot in the destination's mailbox FIFO
}

// msgSlab stores an engine's pending messages by slot. Freed slots are
// reused before the slab grows, so its size tracks the number of
// messages in flight or queued, not the number ever sent.
type msgSlab struct {
	msgs []slabMsg
	free []int32
}

// put stores msg for delivery to PE pe and returns its slot.
func (s *msgSlab) put(msg *Message, pe int32) int32 {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.msgs))
		s.msgs = append(s.msgs, slabMsg{})
	}
	sm := &s.msgs[slot]
	sm.msg = *msg
	sm.pe = pe
	return slot
}

// release returns a dispatched message's slot to the free list.
func (s *msgSlab) release(slot int32) { s.free = append(s.free, slot) }

// tagged is an emission or span event annotated with the ordering key of
// the event whose dispatch produced it, for the sharded engine's
// deterministic post-run merge.
type tagged[T any] struct {
	cause evKey
	v     T
}

// mergeTagged calls f on every element of runs in (at, src, seq) order of
// the cause keys. Each run must already be in that order — an engine
// tags by-products in the order it processes events — and no cause key
// may appear in two runs (every event is processed by exactly one
// engine), so elements of one cause keep their append order: the result
// is the order the sequential engine would have produced them in.
func mergeTagged[T any](runs [][]tagged[T], f func(*T)) {
	// h is a binary min-heap of run indices, keyed by each run's head.
	h := make([]int, 0, len(runs))
	pos := make([]int, len(runs))
	less := func(a, b int) bool { return runs[a][pos[a]].cause.before(&runs[b][pos[b]].cause) }
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(h[c+1], h[c]) {
				c++
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for r := range runs {
		if len(runs[r]) > 0 {
			h = append(h, r)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		r := h[0]
		f(&runs[r][pos[r]].v)
		pos[r]++
		if pos[r] == len(runs[r]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}
