package wse

// Event-queue machinery for the discrete-event engine.
//
// Events are ordered by the key (at, src, seq): simulated cycle first,
// then the origin PE's linear index (host injections use origin -1, which
// orders them before any fabric event in the same cycle), then the
// origin's own push counter. Each origin stamps its pushes with a
// strictly increasing seq, so the key is a total order computed from
// per-PE behavior alone — it does not depend on how the run is
// partitioned, which is what lets the row-sharded engine reproduce the
// sequential engine's results bit for bit (see DESIGN.md, "Simulator
// engine").
//
// The heap holds only that key plus a slot: a 24-byte value with no
// pointers, so sifting it is a plain three-word move with no GC write
// barrier. A delivery's Message lives in the engine's msgSlab and never
// moves while the event is pending: the key's slot indexes it, the
// destination PE's mailbox queues the same slot, a router pass-through
// rewrites the slot in place and pushes it again, and the slot returns to
// the slab's free list when the message is dispatched. A ready event (the
// PE's processor came free) has no message; its slot field holds ^pe,
// which is negative for every PE index.

// evKey is one scheduled event.
type evKey struct {
	at   int64
	seq  int64 // origin's push counter
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

// eventHeap is a 4-ary min-heap of event keys. Unlike container/heap,
// push and pop never box (heap.Push takes `any`, which allocates on every
// call), and the 4-wide fan-out halves the tree depth, trading a few
// extra comparisons per level for fewer cache-missing element moves.
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

// heapify establishes the heap property over the whole slice in O(n) —
// used when an engine's initial event set is bulk-loaded (injections and
// Init-phase sends binned to a shard) rather than pushed one by one.
func (h *eventHeap) heapify() {
	n := len(h.keys)
	for i := (n - 2) >> 2; i >= 0; i-- {
		h.siftDown(h.keys[i], i, n)
	}
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
