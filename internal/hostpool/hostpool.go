// Package hostpool is the block-parallel execution layer shared by the
// host codec's Compress/Decompress paths (internal/core). CereSZ's blocks
// are compressed independently (paper §3) — the property the paper uses to
// fan blocks out across wafer rows — which makes the host codec
// embarrassingly parallel across CPU cores in exactly the same way the
// SIMD-lossy-compression literature exploits: vector-parallel within a
// core (the SWAR kernels), thread-parallel across cores, one bitstream.
//
// The pool is process-wide and lazily started: the first parallel call
// spawns GOMAXPROCS persistent workers; sequential callers (Workers ≤ 1)
// never touch it, preserving the zero-allocation steady-state contract.
// A call shards its index range [0, n) into `shards` contiguous ranges and
// the calling goroutine *participates*: it claims shards from the same
// atomic cursor the pool workers do, so a call always makes progress even
// when every pool worker is busy with other calls, and K concurrent calls
// plus one big call share the machine without oversubscription — total
// concurrency is bounded by the pool size plus the callers themselves.
//
// Shard execution order is unspecified; callers that produce output stitch
// it back by shard index, which is what keeps parallel streams
// byte-identical to the sequential reference at any shard count.
package hostpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ceresz/internal/telemetry"
)

// Telemetry instruments (Default registry, disabled unless a CLI opts
// in). A run that starts with the registry off is untimed and touches
// none of them, nor the occupancy atomics below.
var (
	telPeak      = telemetry.G("host.pool_peak_workers")
	telImbalance = telemetry.G("host.shard_imbalance_pct")
	telRuns      = telemetry.C("host.pool_runs")
	telShards    = telemetry.C("host.pool_shards")
)

var (
	once sync.Once
	runq chan *run
	size int

	active atomic.Int64 // goroutines executing shards of timed runs (workers + callers)
	peak   atomic.Int64 // high-water mark of active
)

// run is one parallel call's descriptor: pool workers and the caller claim
// shards from next until the range is exhausted.
type run struct {
	fn     func(shard, lo, hi int)
	n      int
	shards int
	next   atomic.Int64
	wg     sync.WaitGroup
	timed  bool // record occupancy and per-shard wall times
	minNs  atomic.Int64
	maxNs  atomic.Int64
}

func start() {
	size = runtime.GOMAXPROCS(0)
	if size < 1 {
		size = 1
	}
	runq = make(chan *run, size)
	for i := 0; i < size; i++ {
		go worker()
	}
}

func worker() {
	for r := range runq {
		r.work()
	}
}

// work claims shards until the run's cursor is exhausted. On a timed run
// the first claim registers this goroutine as active (a worker that
// arrives after every shard is claimed touches nothing).
func (r *run) work() {
	counted := false
	for {
		k := int(r.next.Add(1)) - 1
		if k >= r.shards {
			break
		}
		lo, hi := k*r.n/r.shards, (k+1)*r.n/r.shards
		if r.timed {
			if !counted {
				counted = true
				a := active.Add(1)
				for {
					p := peak.Load()
					if a <= p || peak.CompareAndSwap(p, a) {
						break
					}
				}
			}
			t0 := time.Now()
			r.fn(k, lo, hi)
			d := time.Since(t0).Nanoseconds()
			for {
				m := r.minNs.Load()
				if (m != 0 && d >= m) || r.minNs.CompareAndSwap(m, d) {
					break
				}
			}
			for {
				m := r.maxNs.Load()
				if d <= m || r.maxNs.CompareAndSwap(m, d) {
					break
				}
			}
		} else {
			r.fn(k, lo, hi)
		}
		r.wg.Done()
	}
	if counted {
		active.Add(-1)
	}
}

// Size reports the pool's worker count (GOMAXPROCS at first use); before
// the pool has started it reports what that count would be.
func Size() int {
	if runq == nil {
		return runtime.GOMAXPROCS(0)
	}
	return size
}

// Run partitions [0, n) into shards contiguous ranges and executes
// fn(shard, lo, hi) once per shard, returning when all have finished.
// Shard k covers [k·n/shards, (k+1)·n/shards), so callers can size and
// stitch per-shard output deterministically. With shards ≤ 1 fn runs
// inline on the caller with the full range and the pool is never started.
// fn must be safe for concurrent invocation from multiple goroutines.
func Run(shards, n int, fn func(shard, lo, hi int)) {
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	once.Do(start)
	r := &run{fn: fn, n: n, shards: shards, timed: telemetry.Enabled()}
	r.wg.Add(shards)
	// Offer the run to idle workers without ever blocking: a full queue
	// means the pool is saturated, and the caller simply executes the
	// shards itself. At most shards-1 workers can help (the caller takes
	// at least one shard).
	offers := shards - 1
	if offers > size {
		offers = size
	}
	for i := 0; i < offers; i++ {
		select {
		case runq <- r:
		default:
			i = offers
		}
	}
	r.work()
	r.wg.Wait()
	if r.timed {
		telRuns.Add(1)
		telShards.Add(int64(shards))
		telPeak.Set(peak.Load())
		if mx := r.maxNs.Load(); mx > 0 {
			telImbalance.Set(100 * (mx - r.minNs.Load()) / mx)
		}
	}
}
