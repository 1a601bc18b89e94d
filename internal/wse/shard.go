package wse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Row sharding.
//
// Under the paper's data-parallel mapping, rows are fully independent
// (§4.1): every message a row's PEs exchange stays inside the row, so
// each row's event timeline can be simulated on its own. The engine
// detects that property instead of assuming it: rows are partitioned
// into shards — maximal runs of rows with no cross-row sends or routes —
// and each shard runs its own event loop on a worker goroutine. Anything
// the partitioner cannot prove row-local collapses into one shard, which
// is the sequential reference engine.

// ShardProfile declares how a program's traffic relates to the mesh's
// row structure, letting the engine split rows into independently
// simulable shards.
type ShardProfile struct {
	// RowLocal promises the program only sends East or West from its
	// message handlers. The promise is enforced: a North/South send from
	// a sharded worker panics.
	RowLocal bool
}

// ShardAware is optionally implemented by Programs to unlock row
// sharding. Programs without it are conservatively assumed to talk to
// adjacent rows, which glues their row to both neighbors and typically
// collapses the mesh into a single (sequential) shard.
type ShardAware interface {
	ShardProfile() ShardProfile
}

// shard is one shard: the contiguous row range [lo, hi), the Init sends
// into it, and what simulating it produced. The worker that runs the
// shard writes the outputs once, when it finishes.
type shard struct {
	lo, hi int
	init   []evKey // into the Init phase's slab

	processed int64
	emis      []tagged[Emission] // in the shard's stretch of the run's log
	spanEvs   []tagged[SpanEvent]
}

// runPlan is the partitioner's verdict for one Run.
type runPlan struct {
	sequential bool
	shards     []shard
	workers    int
}

// partition decides how to run the mesh: sequentially, or as row shards
// on a worker pool. Rows r and r+1 end up in the same shard when a
// North/South route crosses their boundary or a program on either row
// does not promise RowLocal behavior.
func (m *Mesh) partition() runPlan {
	rows := m.cfg.Rows
	workers := m.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || rows == 1 {
		return runPlan{sequential: true}
	}

	glue := make([]bool, rows) // glue[r]: rows r and r+1 inseparable
	copy(glue, m.glue)
	for i := range m.pes {
		pe := &m.pes[i]
		if pe.program == nil {
			continue
		}
		if sa, ok := pe.program.(ShardAware); ok && sa.ShardProfile().RowLocal {
			continue
		}
		r := pe.coord.Row
		if r > 0 {
			glue[r-1] = true
		}
		if r < rows-1 {
			glue[r] = true
		}
	}
	var shards []shard
	lo := 0
	for r := 0; r < rows; r++ {
		if r == rows-1 || !glue[r] {
			shards = append(shards, shard{lo: lo, hi: r + 1})
			lo = r + 1
		}
	}
	if len(shards) == 1 {
		return runPlan{sequential: true}
	}
	return runPlan{shards: shards, workers: workers}
}

// eventBudget is the sharded workers' shared MaxEvents allowance.
// Workers draw prepaid chunks from it, so the livelock guard stays cheap
// (one atomic per few thousand events). A worker may hold most of a chunk
// it never spends, so the allowance starts one chunk per worker above
// MaxEvents: a draw then fails only once more than MaxEvents events were
// processed, and a run that stays within MaxEvents never fails, on any
// worker count. The guard triggers up to about one chunk per worker late.
type eventBudget struct {
	remaining atomic.Int64
}

const budgetChunk = 4096

// newEventBudget returns the allowance of a run of at most maxEvents
// events on the given number of workers.
func newEventBudget(maxEvents int64, workers int) *eventBudget {
	slack := int64(workers) * budgetChunk
	b := &eventBudget{}
	b.remaining.Store(min(maxEvents, math.MaxInt64-slack) + slack)
	return b
}

// runSharded executes the worker-pool path: each pool goroutine runs
// shards on its own engine until none is left, each shard's rows fed on
// that engine; then the shards' span logs are merged deterministically by
// event key, and their emission logs are left for Emissions to merge.
func (m *Mesh) runSharded(plan runPlan, sends *initSends) (int64, error) {
	shards := plan.shards
	cols := m.cfg.Cols
	// The largest shard's room sizes every worker; all counts every
	// shard's starting deliveries, n[i] shard i's.
	room, all := 0, 0
	n := make([]int, len(shards))
	for i := range shards {
		sh := &shards[i]
		sh.init = sends.within(int32(sh.lo*cols), int32(sh.hi*cols))
		n[i] = m.deliveries(sh)
		room = max(room, roomFor(n[i], (sh.hi-sh.lo)*cols))
		all += n[i]
	}
	// Each shard emits into its own stretch of one run-wide log, as long
	// as its deliveries: in a run like mapping's, where every delivery
	// leaves the wafer once, that log is the run's one emission
	// allocation. A shard that emits more moves its stretch elsewhere.
	log := make([]tagged[Emission], all)
	for i := range shards {
		shards[i].emis, log = log[:0:n[i]], log[n[i]:]
	}

	workers := min(plan.workers, len(shards))
	budget := newEventBudget(m.cfg.MaxEvents, workers)
	m.shards, m.workers = len(shards), workers

	var next, running, peak atomic.Int32
	var wg sync.WaitGroup
	panics := make([]any, len(shards))
	errs := make([]error, len(shards))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := newWorker(m, room)
			e := &wk.engine
			e.shared, e.restricted, e.collect = budget, true, true
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				// Pool-occupancy high-water mark: how many workers were
				// simultaneously busy. Host-side telemetry only — the
				// value depends on the OS scheduler, so it must never
				// flow into deterministic outputs.
				cur := running.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					errs[i] = e.runShard(&shards[i], &sends.slab)
				}()
				running.Add(-1)
			}
		}()
	}
	wg.Wait()
	m.poolPeak = int(peak.Load())
	// Surface failures the way the sequential engine would: the first
	// panicking or erroring shard (by shard order) wins.
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	// The counts stand also for a failed run, as the sequential engine's do.
	m.shardEvents = make([]int64, len(shards))
	m.processed = 0
	for i := range shards {
		m.shardEvents[i] = shards[i].processed
		m.processed += shards[i].processed
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	m.shardEmis = make([][]tagged[Emission], len(shards))
	spans := make([][]tagged[SpanEvent], len(shards))
	var nSpans int
	for i := range shards {
		m.shardEmis[i], spans[i] = shards[i].emis, shards[i].spanEvs
		nSpans += len(shards[i].spanEvs)
	}
	// The span log merges by its records' cause keys, as Emissions does:
	// the sequential engine appends span records while processing events
	// in global (at, src, seq) order, one cause event runs entirely inside
	// one shard, and the merge keeps per-cause append order — so the
	// merged log is bit-identical to the sequential one.
	if m.spans != nil {
		m.spans.events = slices.Grow(m.spans.events, nSpans)
		mergeTagged(spans, func(ev *SpanEvent) { m.spans.events = append(m.spans.events, *ev) })
	}
	return m.Elapsed(), nil
}

// runShard simulates sh on the engine and records its outputs: the
// processed count, its emissions, which the engine appends to the shard's
// own stretch of the run's log, and a copy of its tagged span events,
// which the engine then empties for its next shard.
func (e *engine) runShard(sh *shard, initSlab *msgSlab) error {
	cols := e.m.cfg.Cols
	e.idxLo, e.idxHi = int32(sh.lo*cols), int32(sh.hi*cols)
	e.processed = 0
	e.emis, e.spanEvs = sh.emis, e.spanEvs[:0]
	e.load(sh, initSlab)
	err := e.run()
	sh.processed = e.processed
	sh.emis, sh.spanEvs = e.emis, slices.Clone(e.spanEvs)
	return err
}

// Shards reports how many row shards the last Run simulated (1 when the
// sequential reference engine ran).
func (m *Mesh) Shards() int { return m.shards }

// Workers reports how many host workers the last Run used (1 when the
// sequential reference engine ran).
func (m *Mesh) Workers() int { return m.workers }

// ShardEvents returns the per-shard processed-event counts of the
// last Run (a single entry for a sequential run). The counts measure how
// balanced the row shards were; they are deterministic — a function of
// the partition, not of worker scheduling.
func (m *Mesh) ShardEvents() []int64 { return m.shardEvents }

// PoolPeak reports the peak number of concurrently busy pool workers in
// the last Run (1 for sequential runs). Unlike every other Mesh output
// it is host-side and NOT deterministic — use it for telemetry only.
func (m *Mesh) PoolPeak() int { return m.poolPeak }

// drawQuota charges one event against the shared budget, refilling the
// engine's local prepaid chunk as needed.
func (e *engine) drawQuota() error {
	if e.quota > 0 {
		e.quota--
		return nil
	}
	if e.shared.remaining.Add(-budgetChunk) < 0 {
		return fmt.Errorf("wse: exceeded %d events; likely livelock", e.m.cfg.MaxEvents)
	}
	e.quota = budgetChunk - 1
	return nil
}
