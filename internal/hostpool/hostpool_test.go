package hostpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ceresz/internal/telemetry"
)

// TestRunCoversRangeOnce checks every index in [0, n) is visited exactly
// once, for shard counts below, at, and above the pool size and n.
func TestRunCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ shards, n int }{
		{0, 0}, {1, 0}, {4, 0},
		{1, 1}, {2, 1}, {8, 3},
		{1, 100}, {2, 100}, {3, 97}, {4, 100},
		{runtime.GOMAXPROCS(0) + 3, 1000},
		{64, 1000},
	} {
		hits := make([]atomic.Int64, tc.n)
		Run(tc.shards, tc.n, func(shard, lo, hi int) {
			if lo > hi || lo < 0 || hi > tc.n {
				t.Errorf("shards=%d n=%d: bad range [%d,%d)", tc.shards, tc.n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("shards=%d n=%d: index %d visited %d times", tc.shards, tc.n, i, got)
			}
		}
	}
}

// TestRunShardBoundsDeterministic checks shard k always covers
// [k*n/shards, (k+1)*n/shards) — callers size and stitch output from this.
func TestRunShardBoundsDeterministic(t *testing.T) {
	const shards, n = 7, 103
	var mu sync.Mutex
	got := make(map[int][2]int)
	Run(shards, n, func(shard, lo, hi int) {
		mu.Lock()
		got[shard] = [2]int{lo, hi}
		mu.Unlock()
	})
	if len(got) != shards {
		t.Fatalf("saw %d shards, want %d", len(got), shards)
	}
	for k := 0; k < shards; k++ {
		want := [2]int{k * n / shards, (k + 1) * n / shards}
		if got[k] != want {
			t.Fatalf("shard %d: got range %v, want %v", k, got[k], want)
		}
	}
}

// TestRunConcurrentCallers drives many simultaneous Run calls to exercise
// the non-blocking offer path and caller participation under saturation.
// Run under -race this is the pool's main safety test.
func TestRunConcurrentCallers(t *testing.T) {
	const callers = 16
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 50 + c
			shards := 1 + c%6
			var sum atomic.Int64
			Run(shards, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
			want := int64(n*(n-1)) / 2
			if sum.Load() != want {
				t.Errorf("caller %d: sum %d, want %d", c, sum.Load(), want)
			}
		}(c)
	}
	wg.Wait()
}

// TestRunNestedDoesNotDeadlock: a shard function that itself calls Run must
// complete even with every pool worker occupied, because callers always
// participate and submission never blocks.
func TestRunNestedDoesNotDeadlock(t *testing.T) {
	var inner atomic.Int64
	Run(4, 4, func(_, lo, hi int) {
		Run(4, 8, func(_, lo, hi int) {
			inner.Add(int64(hi - lo))
		})
	})
	if got := inner.Load(); got != 4*8 {
		t.Fatalf("inner iterations = %d, want %d", got, 4*8)
	}
}

// TestSequentialRunsInline: shards <= 1 must execute on the calling
// goroutine without starting the pool (no goroutine handoff, no allocs).
func TestSequentialRunsInline(t *testing.T) {
	var calls int // plain int: safe only if fn runs on this goroutine
	var badShard bool
	fn := func(shard, lo, hi int) {
		if shard != 0 || lo != 0 || hi != 10 {
			badShard = true
		}
		calls++
	}
	allocs := testing.AllocsPerRun(100, func() {
		Run(1, 10, fn)
	})
	if badShard {
		t.Error("inline shard range differed from (0, 0, 10)")
	}
	if calls == 0 {
		t.Fatal("fn never ran")
	}
	if allocs != 0 {
		t.Fatalf("sequential Run allocated %.1f per call, want 0", allocs)
	}
}

// TestPeakTracksOccupancy: after a parallel run with telemetry on, the
// high-water gauge is at least 1 (the participating caller) and never
// exceeds pool size + callers, and the imbalance gauge is a percentage.
func TestPeakTracksOccupancy(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	Run(4, 1000, func(_, lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
		_ = s
	})
	g := telemetry.Default.Snapshot().Gauges
	p := g["host.pool_peak_workers"]
	if p < 1 {
		t.Fatalf("host.pool_peak_workers = %d after a parallel run, want >= 1", p)
	}
	if max := int64(Size() + 64); p > max {
		t.Fatalf("host.pool_peak_workers = %d, exceeds plausible bound %d", p, max)
	}
	if im := g["host.shard_imbalance_pct"]; im < 0 || im > 100 {
		t.Fatalf("host.shard_imbalance_pct = %d, want within [0,100]", im)
	}
}
