package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"ceresz"
	"ceresz/internal/telemetry"
)

// ladderRungs is the order spans nest in: each rung carries the same
// operations as the one above it with one layer fewer in the way.
var ladderRungs = []rungKind{rungProxy, rungLoopback, rungHandler, rungStream, rungCore}

// ladder is the traced pass of one workload: the workload's own schedule
// replayed through every rung, one span per rung per operation, plus the
// per-module measurements that have no rung of their own.
type ladder struct {
	p    *prepared
	C    int
	unit time.Duration // one fiftieth of the run's measuring time
	m    metrics
	rec  *recorder

	attempted, failed int
	firstErr          error
	results           map[rungKind]loopResult
}

func (l *ladder) absorb(res loopResult) {
	l.attempted += res.attempted
	l.failed += res.failed
	if l.firstErr == nil {
		l.firstErr = res.firstErr
	}
}

// mini is a short single-client loop over items on one path factory.
func (l *ladder) mini(name string, ref refKind, chunk int, mk func(int) path, items []*item, dur time.Duration) summary {
	res := runLoop(loopConfig{name: name, ref: ref, chunk: chunk, clients: 1, dur: dur, mk: mk,
		sched: func(w, j int) []*item { return []*item{items[j%len(items)]} }})
	l.absorb(res)
	return summarize(res, 1, false)
}

// side is one side of an A/B comparison: what to do before each of its
// rounds, and the path to run.
type side struct {
	before func()
	mk     func(int) path
}

// alternate compares two one-shot codec paths over the hot items: four
// rounds of a then b, so drift hits both sides alike, each side dur in
// total and pooled.
func (l *ladder) alternate(dur time.Duration, a, b side) (sa, sb summary) {
	const rounds = 4
	var pooled [2]loopResult
	for i := 0; i < rounds; i++ {
		for k, s := range []side{a, b} {
			s.before()
			res := runLoop(loopConfig{name: "core-oneshot", ref: refOneShot, clients: 1, dur: dur / rounds, mk: s.mk,
				sched: func(w, j int) []*item { return []*item{l.p.hot[j%len(l.p.hot)]} }})
			l.absorb(res)
			pooled[k].ops = append(pooled[k].ops, res.ops...)
		}
	}
	return summarize(pooled[0], 1, false), summarize(pooled[1], 1, false)
}

func oneShot(workers int) func(int) path {
	return func(int) path { return &corePath{workers: workers} }
}

// runLadder produces every per-layer metric for p. It stops p.top: the
// ladder starts each rung's servers itself, one rung at a time, so only
// one server stack (and one cache) is resident at once.
func runLadder(p *prepared, C int, seconds float64) (*ladder, error) {
	l := &ladder{p: p, C: C, unit: time.Duration(seconds / 50 * float64(time.Second)),
		m: metrics{}, rec: &recorder{}, results: map[rungKind]loopResult{}}

	// Tracing overhead: the workload's own rung in alternating slices
	// without and with span recording, so drift hits both sides alike.
	// The slices continue one operation sequence, so a window that was
	// fresh in one slice is not a repeat in the next.
	warmSim := p.top.simTotals() // the verification pass ran every mesh, untimed
	topRec := &recorder{}
	if p.def.oneShot {
		topRec = l.rec // a one-shot top is no ladder rung: its spans are kept as roots
	}
	var off, on loopResult
	var wall time.Duration
	next := 0
	for i := 0; i < 4; i++ {
		for _, rec := range []*recorder{nil, topRec} {
			res := p.top.loop(p, l.unit, rec, next)
			l.absorb(res)
			next = res.nextOp
			wall += res.wall
			if rec == nil {
				off.ops = append(off.ops, res.ops...)
			} else {
				on.ops = append(on.ops, res.ops...)
			}
		}
	}
	if len(off.ops) == 0 || len(on.ops) == 0 {
		return nil, fmt.Errorf("no operation succeeded on the %s rung: %v", p.top.name, l.firstErr)
	}
	l.m.set("trace.overhead_pct", 100*(summarize(on, 1, false).cP50/summarize(off, 1, false).cP50-1))
	if p.def.top == rungSim {
		l.simMetrics(p.top.simTotals(), warmSim, wall)
	}
	p.top.stop()

	for _, kind := range ladderRungs {
		if err := l.runRung(kind); err != nil {
			return nil, fmt.Errorf("%s rung: %w", rungNames[kind], err)
		}
	}
	l.reduceSpans()

	if err := l.moduleMetrics(); err != nil {
		return nil, err
	}
	return l, nil
}

// counters sums named counters over registries.
func counters(regs []*telemetry.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, r := range regs {
		for k, v := range r.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

func (l *ladder) runRung(kind rungKind) error {
	p := l.p
	r, err := newRung(p, kind, false, true)
	if err != nil {
		return err
	}
	defer r.stop()
	if p.def.cache && len(r.backends) > 0 {
		warm := r.pass(p)
		l.absorb(warm)
	}
	before := counters(r.backends)
	var ms0, ms1 runtime.MemStats
	if kind == rungHandler {
		runtime.ReadMemStats(&ms0)
	}
	res := r.loop(p, 4*l.unit, l.rec, 0)
	if kind == rungHandler {
		runtime.ReadMemStats(&ms1)
	}
	l.absorb(res)
	l.results[kind] = res
	if len(res.ops) == 0 {
		return fmt.Errorf("no operation succeeded: %v", res.firstErr)
	}
	after := counters(r.backends)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	s := summarize(res, 1, false)
	m := l.m

	switch kind {
	case rungCore:
		c, d := "core.compress_mbps", "core.decompress_mbps"
		if p.f64 {
			c, d = "core.compress64_mbps", "core.decompress64_mbps"
		}
		m.set(c, s.compressMBps)
		m.set(d, s.decompressMBps)
		var ns, elems float64
		for _, op := range res.ops {
			ns += float64(op.cNs)
			elems += float64(op.raw) / float64(p.elemSize())
		}
		m.set("core.ns_per_elem", ns/elems)
	case rungStream:
		m.set("stream.write_mbps", s.compressMBps)
		m.set("stream.read_mbps", s.decompressMBps)
	case rungHandler:
		m.set("server.handler_compress_ms", s.cP50)
		m.set("server.handler_decompress_ms", s.dP50)
		m.set("server.alloc_bytes_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(res.attempted))
	case rungLoopback:
		m.set("server.compress_p99_ms", s.cP99)
		m.set("server.decompress_p99_ms", s.dP99)
		m.set("server.rejected_429", delta("server.compress.rejected")+delta("server.decompress.rejected"))
		l.stageMetrics(r)
	case rungProxy:
		m.set("cluster.p99_ms", s.cP99)
		if err := l.proxyMetrics(r, res, delta("cache.hits")+delta("cache.coalesced")); err != nil {
			return err
		}
	}
	// The chunk cache is judged on the rung the workload itself runs on
	// (the daemon for every workload below the proxy).
	cacheRung := rungLoopback
	if p.def.top == rungProxy {
		cacheRung = rungProxy
	}
	if kind == cacheRung {
		lookups := delta("cache.hits") + delta("cache.misses") + delta("cache.coalesced")
		share := 0.0
		if lookups > 0 {
			share = (delta("cache.hits") + delta("cache.coalesced")) / lookups
		}
		m.set("chunkcache.hit_share", share)
		m.set("chunkcache.evictions", delta("cache.evictions"))
	}
	return nil
}

// stageMetrics averages the daemon's own Server-Timing trailers over the
// loopback rung's compress requests.
func (l *ladder) stageMetrics(r *rung) {
	rows := []struct {
		name string
		of   func(serverSample) time.Duration
	}{
		{"server.stage.admit_us", func(s serverSample) time.Duration { return s.timing.Admit }},
		{"server.stage.worker_us", func(s serverSample) time.Duration { return s.timing.Worker }},
		{"server.stage.read_us", func(s serverSample) time.Duration { return s.timing.Read }},
		{"server.stage.cache_us", func(s serverSample) time.Duration { return s.timing.Cache }},
		{"server.stage.codec_us", func(s serverSample) time.Duration { return s.timing.Codec }},
		{"server.stage.write_us", func(s serverSample) time.Duration { return s.timing.Write }},
		{"server.total_us", func(s serverSample) time.Duration { return s.timing.Total }},
		// A thousandth of the gap, so that the µs below reads as ms.
		{"client.overhead_ms", func(s serverSample) time.Duration { return (s.elapsed - s.timing.Total) / 1000 }},
	}
	for _, row := range rows {
		var n, total float64
		for _, per := range r.samples {
			for _, s := range per {
				n++
				total += float64(row.of(s).Nanoseconds()) / 1e3
			}
		}
		// No trailer seen makes this NaN, which fails the run as unmeasured.
		l.m.set(row.name, total/n)
	}
}

// proxyMetrics fills the cluster rows from the proxy rung. cacheHits is
// the backends' chunk-level hit count during the loop.
func (l *ladder) proxyMetrics(r *rung, res loopResult, cacheHits float64) error {
	p, m := l.p, l.m
	// Affinity: every chunk of a repeated request should hit, which it
	// only does if the proxy sent the repeat to the backend that holds it.
	hot := map[*item]bool{}
	for _, it := range p.hot {
		hot[it] = true
	}
	var repeats float64
	for _, op := range res.ops {
		for _, it := range p.sched(op.w, op.j) {
			if hot[it] {
				repeats += 2 * math.Ceil(float64(it.elems())/float64(r.chunk)) // compress + decompress
			}
		}
	}
	share := 0.0
	if p.def.cache && repeats > 0 {
		share = cacheHits / repeats
	}
	m.set("cluster.affinity_hit_share", share)

	pc := r.proxyReg.Snapshot().Counters
	b0, b1 := float64(pc["proxy.backend.b0.requests"]), float64(pc["proxy.backend.b1.requests"])
	m.set("cluster.backend_share_max", math.Max(b0, b1)/(b0+b1))
	m.set("cluster.failovers", float64(pc["proxy.failover"]))

	// The buffered relay at both request sizes, on the same data.
	small := &item{id: -1, bound: ceresz.REL(relLambda)}
	big := &item{id: -2, bound: ceresz.REL(relLambda)}
	if p.f64 {
		small.f64, big.f64 = p.corpus64[:p.sz.window], p.corpus64[:p.sz.big]
	} else {
		small.f32, big.f32 = p.corpus32[:p.sz.window], p.corpus32[:p.sz.big]
	}
	m.set("cluster.buffered_p50_ms", l.mini("proxy", refFramed, r.chunk, r.mk, []*item{small}, l.unit).cP50)
	m.set("cluster.buffered_big_p50_ms", l.mini("proxy", refFramed, r.chunk, r.mk, []*item{big}, l.unit).cP50)
	if err := l.streamedProbe(big); err != nil {
		return err
	}
	ringMetrics(m, r.ring(), l.unit/4)
	return nil
}

// streamedProbe sends the big item through a second proxy whose replay
// buffer it overflows, so the body streams to the backend while the
// response streams back. That relay drops requests at this commit, so
// what the probe loses is reported as its own count and kept out of the
// run's failed operations: the probe exists to watch the defect, the
// workloads to stay clear of it.
func (l *ladder) streamedProbe(big *item) error {
	p := l.p
	ps, err := startProxy(0, p.sz.chunk, p.sz.streamBytes(p.elemSize()))
	if err != nil {
		return err
	}
	defer ps.stop()
	c, t := newClient(ps.front.url, p.sz.chunk, "bench")
	defer t.CloseIdleConnections()
	res := runLoop(loopConfig{name: "proxy-streamed", ref: refFramed, chunk: p.sz.chunk, clients: 1, dur: l.unit,
		mk: func(int) path { return &httpPath{c: c} }, sched: func(w, j int) []*item { return []*item{big} }})
	l.m.set("cluster.streamed_failed", float64(res.failed))
	p50 := 0.0
	if len(res.ops) > 0 {
		p50 = summarize(res, 1, false).cP50
	}
	l.m.set("cluster.streamed_p50_ms", p50)
	return nil
}

// reduceSpans links each span to the span of the rung above that carried
// the same operation, reduces them to self times, and fills the *_self_ms
// rows from the compress direction.
func (l *ladder) reduceSpans() {
	spans := l.rec.spans
	index := map[string]map[int64]int{}
	for i, s := range spans {
		if index[s.Name] == nil {
			index[s.Name] = map[int64]int{}
		}
		index[s.Name][s.OpID] = i
	}
	for _, dir := range []string{".compress", ".decompress"} {
		for k := 1; k < len(ladderRungs); k++ {
			parents := index[rungNames[ladderRungs[k-1]]+dir]
			for id, i := range index[rungNames[ladderRungs[k]]+dir] {
				if pi, ok := parents[id]; ok {
					spans[i].Parent = pi
				}
			}
		}
	}
	self := selfTimes(spans)
	ms := func(rung rungKind) float64 { return median(self[rungNames[rung]+".compress"]) / 1e6 }
	l.m.set("cluster.hop_self_ms", ms(rungProxy))
	l.m.set("server.socket_self_ms", ms(rungLoopback))
	l.m.set("server.handler_self_ms", ms(rungHandler))
	l.m.set("stream.self_ms", ms(rungStream))

	// The self times at and below the workload's own rung should add up to
	// what its caller observed there.
	top := l.p.def.top
	if l.p.def.oneShot {
		top = rungCore
	}
	var total float64
	for _, k := range ladderRungs {
		if k <= top {
			total += ms(k)
		}
	}
	l.m.set("trace.self_sum_ratio", total/summarize(l.results[top], 1, false).cP50)
}

// moduleMetrics measures what has no rung: kernels, the codec's other
// element type, the worker pool, bundles, the cache's own operations,
// the simulator, and the telemetry switch.
func (l *ladder) moduleMetrics() error {
	p, m, u := l.p, l.m, l.unit
	first := p.hot[0]

	hostMetrics(m, int(min(first.rawBytes(), 64<<20)), u/2)
	k, err := newKernelInput(first, 4096)
	if err != nil {
		return err
	}
	kernelMetrics(m, k, u/4)
	poolMetrics(m, l.C, u/4)

	body := encodeBody(nil, p.sched(0, 0)[0])
	m.set("client.encode_ms", 1e3*perCall(u/4, func() { body = encodeBody(body, p.sched(0, 0)[0]) }))
	cacheMetrics(m, body, p.sz.chunk*p.elemSize(), u/4)

	// Codec statistics of the hot items, one-shot: counts, so they repeat.
	var st, tot ceresz.Stats
	var widthSum float64
	for _, it := range p.hot {
		path := &corePath{workers: 1}
		if _, err := path.compress(it); err != nil {
			return err
		}
		st = path.stats
		tot.Blocks += st.Blocks
		tot.ZeroBlocks += st.ZeroBlocks
		tot.VerbatimBlocks += st.VerbatimBlocks
		widthSum += st.MeanWidth() * float64(st.Blocks-st.ZeroBlocks-st.VerbatimBlocks)
	}
	m.set("core.zero_block_share", float64(tot.ZeroBlocks)/float64(tot.Blocks))
	m.set("core.mean_width_bits", widthSum/math.Max(1, float64(tot.Blocks-tot.ZeroBlocks-tot.VerbatimBlocks)))
	m.set("core.verbatim_blocks", float64(tot.VerbatimBlocks))
	m.set("core.allocs_per_op", allocsPerOp(first))
	own := "core.compress_mbps"
	if p.f64 {
		own = "core.compress64_mbps"
	}
	m.set("core.frac_of_memcpy", m.get(own)/1e3/m.get("host.memcpy_gbps"))

	// The other element type, on a converted copy of the first hot item.
	twin := &item{id: -3, bound: first.bound}
	n := min(first.elems(), 1<<20)
	tc, td := "core.compress64_mbps", "core.decompress64_mbps"
	if p.f64 {
		twin.f32 = narrow(first.f64[:n])
		tc, td = "core.compress_mbps", "core.decompress_mbps"
	} else {
		twin.f64 = widen(first.f32[:n])
	}
	ts := l.mini("core", refFramed, p.sz.chunk, func(int) path { return &corePath{chunk: p.sz.chunk, workers: 1} }, []*item{twin}, 2*u)
	m.set(tc, ts.compressMBps)
	m.set(td, ts.decompressMBps)

	// Worker pool: the same one-shot call at Workers=1 and Workers=C.
	nop := func() {}
	seq, par := l.alternate(2*u, side{nop, oneShot(1)}, side{nop, oneShot(l.C)})
	if runtime.GOMAXPROCS(0) > 1 {
		m.set("hostpool.compress_par_mbps", par.compressMBps)
		m.set("hostpool.decompress_par_mbps", par.decompressMBps)
		m.set("hostpool.speedup_compress", par.compressMBps/seq.compressMBps)
		m.set("hostpool.speedup_decompress", par.decompressMBps/seq.decompressMBps)
	} else {
		for name := range parallelOnly {
			m.null(name)
		}
	}
	// Shard/stitch cost alone: the parallel path with nothing to run on.
	prev := runtime.GOMAXPROCS(1)
	seq, par = l.alternate(u, side{nop, oneShot(1)}, side{nop, oneShot(max(l.C, 2))})
	runtime.GOMAXPROCS(prev)
	m.set("hostpool.stitch_overhead_pct", 100*(par.cP50/seq.cP50-1))

	off, on := l.alternate(2*u, side{ceresz.DisableTelemetry, oneShot(1)}, side{ceresz.EnableTelemetry, oneShot(1)})
	ceresz.DisableTelemetry()
	m.set("telemetry.enabled_overhead_pct", 100*(on.cP50/off.cP50-1))

	if err := l.bundleMetrics(); err != nil {
		return err
	}

	sim := p.simItem()
	if p.def.top != rungSim {
		r, err := newRung(p, rungSim, true, false)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res := runLoop(loopConfig{name: "sim", ref: refOneShot, clients: 1, maxOps: len(simMeshes), mk: r.mk,
			sched: func(w, j int) []*item { return []*item{sim} }})
		l.absorb(res)
		l.simMetrics(r.simTotals(), simTotals{}, time.Since(t0))
	}
	return planMetrics(m, sim, u/4)
}

// simItem is what the simulator rows were measured on.
func (p *prepared) simItem() *item {
	if p.def.top == rungSim {
		return p.hot[0]
	}
	it := &item{id: -4, bound: ceresz.REL(relLambda)}
	if p.f64 {
		it.f32 = narrow(p.corpus64[:min(len(p.corpus64), 74088)])
	} else {
		it.f32 = p.corpus32[:min(len(p.corpus32), 74088)]
	}
	return it
}

func (p *prepared) elemSize() int {
	if p.f64 {
		return 8
	}
	return 4
}

// simTotals sums what the rung's simulator paths have accumulated.
func (r *rung) simTotals() simTotals {
	var tot simTotals
	for _, sp := range r.sims {
		tot.itemBytes = sp.tot.itemBytes
		tot.events += sp.tot.events
		tot.blocks += sp.tot.blocks
		for i := range simMeshes {
			if sp.tot.cyclesC[i] != 0 {
				tot.cyclesC[i], tot.cyclesD[i] = sp.tot.cyclesC[i], sp.tot.cyclesD[i]
			}
		}
	}
	return tot
}

// simMetrics fills the wse rows. Cycle counts are exact and come from
// the last run on each mesh; the wall-clock rates cover what ran after
// the untimed snapshot, over wall.
func (l *ladder) simMetrics(tot, untimed simTotals, wall time.Duration) {
	var cycles int64
	for i, mesh := range simMeshes {
		l.m.set("wse.cycles_compress."+meshName(mesh), float64(tot.cyclesC[i]))
		l.m.set("wse.cycles_decompress."+meshName(mesh), float64(tot.cyclesD[i]))
		cycles += tot.cyclesC[i] + tot.cyclesD[i]
	}
	// One item through three meshes in both directions, at the CS-2's
	// 850 MHz: exact, because the cycle counts are.
	const hz = 850e6
	l.m.set("wse.model_gbps", float64(2*len(simMeshes))*float64(tot.itemBytes)/(float64(cycles)/hz)/1e9)
	l.m.set("wse.blocks_per_s", float64(tot.blocks-untimed.blocks)/wall.Seconds())
	l.m.set("wse.events_per_s", float64(tot.events-untimed.events)/wall.Seconds())
}

// bundleMetrics times CSZB assembly and member reads over the hot items.
func (l *ladder) bundleMetrics() error {
	p := l.p
	items := p.hot[:min(len(p.hot), 4)]
	var raw float64
	for _, it := range items {
		raw += float64(it.rawBytes())
	}
	var bundle []byte
	var err error
	tAdd := perCall(l.unit/2, func() {
		bw := ceresz.NewBundleWriter()
		for i, it := range items {
			name := fmt.Sprintf("f%d", i)
			if it.f64 != nil {
				_, err = bw.AddField64(name, ceresz.Dims1(len(it.f64)), it.f64, it.bound, ceresz.Options{})
			} else {
				_, err = bw.AddField(name, ceresz.Dims1(len(it.f32)), it.f32, it.bound, ceresz.Options{})
			}
			if err != nil {
				return
			}
		}
		bundle, err = bw.Bytes()
	})
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	hashes := make([]uint64, len(items))
	tRead := perCall(l.unit/2, func() {
		var br *ceresz.BundleReader
		if br, err = ceresz.OpenBundle(bundle); err != nil {
			return
		}
		for i, it := range items {
			name := fmt.Sprintf("f%d", i)
			if it.f64 != nil {
				var v []float64
				if v, _, err = br.ReadField64(name); err == nil {
					hashes[i] = hashF64(v)
				}
			} else {
				var v []float32
				if v, _, err = br.ReadField(name); err == nil {
					hashes[i] = hashF32(v)
				}
			}
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	// A member is a one-shot container, so it decodes to the one-shot
	// reference's values.
	l.attempted += len(items)
	for i, it := range items {
		ref, err := it.ref(refOneShot, 0)
		if err != nil {
			return err
		}
		if hashes[i] != ref.decHash {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("bundle member %d decodes differently from the library's one-shot stream", i)
			}
		}
	}
	l.m.set("bundle.add_mbps", raw/tAdd/1e6)
	l.m.set("bundle.read_mbps", raw/tRead/1e6)
	return nil
}

// writeChromeTrace writes the ladder's spans as Chrome trace events: one
// track per worker, each operation's rungs nested inside the rung above.
// The rungs ran one after another, so a child is drawn centred inside its
// parent (clipped to it) and keeps its measured start in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	tw := telemetry.NewChromeTraceWriter(w)
	depth := func(i int) (d int) {
		for ; spans[i].Parent >= 0; i = spans[i].Parent {
			d++
		}
		return d
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return depth(order[a]) < depth(order[b]) })
	// Where each span is drawn, in ns; parents come first in order.
	start := make([]int64, len(spans))
	dur := make([]int64, len(spans))
	workers := map[int]bool{}
	for _, i := range order {
		s := spans[i]
		start[i], dur[i] = s.Start, s.End-s.Start
		if p := s.Parent; p >= 0 {
			dur[i] = min(dur[i], dur[p])
			start[i] = start[p] + (dur[p]-dur[i])/2
		}
		tid := int(s.OpID >> 32)
		if !workers[tid] {
			workers[tid] = true
			tw.Emit(telemetry.ThreadName(1, tid, fmt.Sprintf("client %d", tid)))
		}
		tw.Emit(telemetry.ChromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X", Ts: start[i] / 1e3, Dur: max(dur[i]/1e3, 1), Pid: 1, Tid: tid,
			Args: map[string]any{"op_id": s.OpID, "measured_start_us": s.Start / 1e3, "measured_us": (s.End - s.Start) / 1e3},
		})
	}
	return tw.Close()
}
