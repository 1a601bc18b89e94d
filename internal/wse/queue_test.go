package wse

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// newCalQueue returns an empty queue whose node pool and overflow heap
// hold room keys each before they grow.
func newCalQueue(room int) *calQueue {
	q := new(calQueue)
	q.init(room)
	return q
}

// pointerFree reports whether values of t hold no pointers, so the
// garbage collector never scans them and moving them needs no write
// barrier.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// TestEventKeyLayout pins the heap key at three words with no pointer in
// it: a field that brought a pointer (or a Message) back would bring back
// the write barriers and the large copies the key/slab layout removed.
func TestEventKeyLayout(t *testing.T) {
	typ := reflect.TypeOf(evKey{})
	if typ.Size() != 24 {
		t.Errorf("evKey is %d bytes, want 24", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !pointerFree(f.Type) {
			t.Errorf("evKey.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
	if !pointerFree(typ) {
		t.Error("evKey holds a pointer")
	}
	if pointerFree(reflect.TypeOf(Message{})) {
		t.Error("pointerFree misses Message's payload interface")
	}
}

func TestEventHeapSteadyStateAllocs(t *testing.T) {
	var h eventHeap
	h.keys = make([]evKey, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			h.push(evKey{at: int64((i * 37) % 97), seq: int64(i % 5), src: int32(i % 7), slot: int32(i)})
		}
		prev := evKey{at: -1, src: math.MinInt32}
		for h.len() > 0 {
			k := h.pop()
			if k.before(&prev) {
				t.Fatal("heap popped keys out of order")
			}
			prev = k
		}
	})
	if allocs != 0 {
		t.Fatalf("event heap allocated %v times per run at steady state, want 0", allocs)
	}
}

// TestCalendarQueueMatchesHeap drives the calendar queue and a plain
// eventHeap through one seeded random interleaving of pushes and pops:
// same-cycle ties across origins and sequence numbers, keys at the last
// cycle of the ring's window, at the first past it and far beyond, idle
// gaps that carry base round the ring, and several runs on one reset
// queue, one of them reset with keys still queued. Every pop must return
// exactly the heap's key.
func TestCalendarQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	q := newCalQueue(16) // a small pool, so nodes and overflow regrow too
	var ref eventHeap
	seqs := make([]int64, 7) // per-origin push counters; origin -1 is the host
	var slot int32
	var now int64 // cycle of the last pop
	push := func(at int64) {
		src := int32(rng.Intn(len(seqs)))
		k := evKey{at: at, seq: seqs[src], src: src - 1, slot: slot}
		seqs[src]++
		slot++
		q.push(k)
		ref.push(k)
	}
	pop := func() {
		want := ref.pop()
		if got := q.pop(); got != want {
			t.Fatalf("calendar popped %+v, heap %+v", got, want)
		}
		now = want.at
	}
	pops := 0
	for run := 0; run < 4; run++ {
		q.reset()
		ref.keys = ref.keys[:0]
		now = 0
		for step := 0; step < 30_000; step++ {
			switch r := rng.Intn(32); {
			case r < 10:
				push(now + rng.Int63n(3)) // same-cycle ties
			case r < 13:
				push(now + rng.Int63n(calWindow))
			case r == 13:
				push(now + calWindow - 1)
			case r == 14:
				push(now + calWindow)
			case r == 15:
				push(now + calWindow + rng.Int63n(50*calWindow))
			case r == 16 && rng.Intn(8) == 0:
				// An idle gap: drain, then resume past the window, so
				// the next keys land in buckets base has wrapped over.
				for ref.len() > 0 {
					pop()
					pops++
				}
				gap := calWindow/2 + rng.Int63n(5*calWindow)
				for i := rng.Intn(4); i >= 0; i-- {
					push(now + gap + rng.Int63n(40))
				}
			default:
				if ref.len() > 0 {
					pop()
					pops++
				}
			}
			if q.len() != ref.len() {
				t.Fatalf("calendar holds %d keys, heap %d", q.len(), ref.len())
			}
		}
		if run == 2 {
			continue // reset with keys still queued, as after a failed shard
		}
		for ref.len() > 0 {
			pop()
			pops++
		}
	}
	if pops < 50_000 {
		t.Fatalf("only %d pops compared", pops)
	}
}

func TestCalendarQueueSteadyStateAllocs(t *testing.T) {
	q := newCalQueue(256)
	allocs := testing.AllocsPerRun(100, func() {
		base := q.base
		for i := 0; i < 256; i++ {
			at := base + int64((i*37)%97)
			if i%8 == 0 {
				at += 2 * calWindow // the overflow heap
			}
			q.push(evKey{at: at, seq: int64(i % 5), src: int32(i % 7), slot: int32(i)})
		}
		prev := evKey{at: -1, src: math.MinInt32}
		for q.len() > 0 {
			k := q.pop()
			if k.before(&prev) {
				t.Fatal("calendar popped keys out of order")
			}
			prev = k
		}
	})
	if allocs != 0 {
		t.Fatalf("calendar queue allocated %v times per run at steady state, want 0", allocs)
	}
}

func TestReadyKeyTagsThePE(t *testing.T) {
	for _, pe := range []int32{0, 1, 4_000_000} {
		k := readyKey(7, pe, 3)
		if k.slot >= 0 || ^k.slot != pe || k.src != pe {
			t.Fatalf("readyKey(pe %d) = %+v", pe, k)
		}
	}
}

func TestMergeTaggedKeepsKeyAndRunOrder(t *testing.T) {
	key := func(at int64, src int32, seq int64) evKey { return evKey{at: at, src: src, seq: seq} }
	runs := [][]tagged[int]{
		{{key(1, 0, 0), 10}, {key(1, 0, 0), 11}, {key(5, 0, 1), 12}},
		nil,
		{{key(1, -1, 0), 20}, {key(3, 2, 0), 21}},
		{{key(1, 0, 1), 30}, {key(9, 1, 0), 31}},
	}
	var got []int
	mergeTagged(runs, func(v *int) { got = append(got, *v) })
	want := []int{20, 10, 11, 30, 21, 12, 31}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// TestMeshRunAllocsIndependentOfBlocks pins that Run sizes its event
// queues, slabs and logs once, up front: on the BenchmarkMeshRun shape it
// must allocate the same number of times for 256 and for 1024 blocks per
// row.
// One worker runs on the calling goroutine, so its count must match
// exactly. A pool's other goroutines add a runtime allocation or two
// that depend on the scheduler (goroutine descriptors, wait-queue
// entries), so it gets a margin well under its 64 rows: an array that
// regrew in every row would still fail.
func TestMeshRunAllocsIndependentOfBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 65 536-block meshes")
	}
	// The count is the fewest of a few runs, with the collector off
	// while Run runs.
	runAllocs := func(workers, blocksPerRow int) int64 {
		best := int64(math.MaxInt64)
		for rep := 0; rep < 4; rep++ {
			m := buildBenchMesh(t, Config{Rows: 64, Cols: 8, Workers: workers}, blocksPerRow)
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			best = min(best, int64(after.Mallocs-before.Mallocs))
		}
		return best
	}
	for _, tc := range []struct{ workers, margin int64 }{{1, 0}, {2, 8}} {
		small, large := runAllocs(int(tc.workers), 256), runAllocs(int(tc.workers), 1024)
		t.Logf("workers=%d: Run allocates %d times at 256 blocks per row, %d at 1024", tc.workers, small, large)
		if d := large - small; d > tc.margin || -d > tc.margin {
			t.Errorf("workers=%d: Run allocates %d times at 256 blocks per row but %d at 1024", tc.workers, small, large)
		}
	}
}
