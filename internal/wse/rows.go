package wse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Rows are the engine's unit.
//
// Under the paper's data-parallel mapping, rows are fully independent
// (§4.1), and the simulator makes that structural: a PE links only East
// and West, so every message stays in its row, and each row's event
// timeline is simulated on its own. A run hands its rows out to a pool of
// workers; each worker owns one engine and simulates row after row on it:
// the row's Init, its host feed, then its event loop. The rows' emissions
// and span events are tagged with their cause event's key and merged after
// the run, so nothing observable depends on the worker count.

// rowRun is what simulating one row produced. The worker that simulates
// the row writes it once, when the row finishes.
type rowRun struct {
	processed int64
	emis      []tagged[Emission] // in the row's stretch of the run's log
	spanEvs   []tagged[SpanEvent]
}

// eventBudget is a run's MaxEvents allowance. Workers draw prepaid chunks
// from it, so the livelock guard stays cheap (one atomic per few thousand
// events). A worker may hold most of a chunk it never spends, so the
// allowance starts one chunk per worker above MaxEvents: a draw then
// fails only once more than MaxEvents events were processed, and a run
// that stays within MaxEvents never fails, on any worker count. The guard
// triggers up to about one chunk per worker late.
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

// drawQuota charges one event against the run's budget, refilling the
// engine's local prepaid chunk as needed.
func (e *engine) drawQuota() error {
	if e.quota > 0 {
		e.quota--
		return nil
	}
	if e.budget.remaining.Add(-budgetChunk) < 0 {
		return fmt.Errorf("wse: exceeded %d events; likely livelock", e.m.cfg.MaxEvents)
	}
	e.quota = budgetChunk - 1
	return nil
}

// runRows simulates every row on the worker pool: the calling goroutine
// and Workers-1 more each run rows on their own engine until none is
// left. Then it merges the rows' span logs by event key, and leaves their
// emission logs for Emissions to merge.
func (m *Mesh) runRows() error {
	rows, cols := m.cfg.Rows, m.cfg.Cols
	workers := m.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, rows))
	m.shards, m.workers = rows, workers

	// Each row emits into its own stretch of one run-wide log, as long as
	// its feed: in a run like mapping's, where every host delivery leaves
	// the wafer once, that log is the run's one emission allocation. A
	// row that emits more moves its stretch elsewhere. The longest feed
	// sizes every engine.
	runs := make([]rowRun, rows)
	n := make([]int, rows)
	longest, all := 0, 0
	if m.feed != nil {
		for r := range n {
			n[r] = m.feed.RowLen(r)
			longest = max(longest, n[r])
			all += n[r]
		}
	}
	log := make([]tagged[Emission], all)
	for r := range runs {
		runs[r].emis, log = log[:0:n[r]], log[n[r]:]
	}

	budget := newEventBudget(m.cfg.MaxEvents, workers)
	var next, running, peak atomic.Int32
	panics := make([]any, rows)
	errs := make([]error, rows)
	work := func() {
		e := newEngine(m, roomFor(longest, cols), budget)
		for {
			r := int(next.Add(1)) - 1
			if r >= rows {
				return
			}
			// Pool-occupancy high-water mark: how many workers were
			// simultaneously busy. Host-side telemetry only — the value
			// depends on the OS scheduler, so it must never flow into
			// deterministic outputs.
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						panics[r] = p
					}
				}()
				errs[r] = e.runRow(r, &runs[r])
			}()
			running.Add(-1)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	m.poolPeak = int(peak.Load())
	// The first panicking or failing row, in row order, wins.
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	// The counts stand also for a failed run.
	m.shardEvents = make([]int64, rows)
	m.processed = 0
	for r := range runs {
		m.shardEvents[r] = runs[r].processed
		m.processed += runs[r].processed
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	m.rowEmis = make([][]tagged[Emission], rows)
	spans := make([][]tagged[SpanEvent], rows)
	var nSpans int
	for r := range runs {
		m.rowEmis[r], spans[r] = runs[r].emis, runs[r].spanEvs
		nSpans += len(runs[r].spanEvs)
	}
	// The span log merges by its events' cause keys, as Emissions does:
	// one cause event runs entirely inside one row, so the merged log is
	// in (at, src, seq) order of the causes, and one cause's events keep
	// the order they were recorded in.
	if m.spans != nil {
		m.spans.events = slices.Grow(m.spans.events, nSpans)
		mergeTagged(spans, func(ev *SpanEvent) { m.spans.events = append(m.spans.events, *ev) })
	}
	return nil
}

// runRow simulates row r on the engine and records its outputs in out:
// the processed count, its emissions, which the engine appends to the
// row's own stretch of the run's log, and a copy of its tagged span
// events, which the engine then empties for its next row.
func (e *engine) runRow(r int, out *rowRun) error {
	e.processed = 0
	e.emis, e.spanEvs = out.emis, e.spanEvs[:0]
	e.load(r)
	err := e.run()
	out.processed = e.processed
	out.emis, out.spanEvs = e.emis, slices.Clone(e.spanEvs)
	return err
}

// Shards reports how many row shards the last Run simulated: one per row
// of the mesh.
func (m *Mesh) Shards() int { return m.shards }

// Workers reports how many host workers the last Run used.
func (m *Mesh) Workers() int { return m.workers }

// ShardEvents returns the per-row processed-event counts of the last Run.
// The counts measure how balanced the rows were; they are deterministic —
// a function of the row, not of worker scheduling.
func (m *Mesh) ShardEvents() []int64 { return m.shardEvents }

// PoolPeak reports the peak number of concurrently busy pool workers in
// the last Run. Unlike every other Mesh output it is host-side and NOT
// deterministic — use it for telemetry only.
func (m *Mesh) PoolPeak() int { return m.poolPeak }
