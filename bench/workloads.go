package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"ceresz"
	"ceresz/internal/cluster"
	"ceresz/internal/datasets"
	"ceresz/internal/server"
	"ceresz/internal/telemetry"
)

// sizes fixes every input dimension of a run. fullSizes is what the
// benchmark measures; checkSizes shrinks the inputs (not the code paths)
// so the whole suite smoke-runs in seconds.
type sizes struct {
	scale      datasets.Scale
	window     int   // elements per serving request
	big        int   // elements per large proxy request
	chunk      int   // elements per CSZF frame
	hot        int   // repeated windows
	cacheBytes int64 // server.Config.CacheBytes where the cache is on
	setups     int   // set-ups per run; setup_s is their median
}

var (
	fullSizes  = sizes{scale: datasets.Medium, window: 512 << 10, big: 2 << 20, chunk: 64 << 10, hot: 16, cacheBytes: 256 << 20, setups: 3}
	checkSizes = sizes{scale: datasets.Small, window: 16 << 10, big: 64 << 10, chunk: 2 << 10, hot: 4, cacheBytes: 8 << 20, setups: 1}
)

// replayBytes is the proxy's replay buffer on every measured path: twice
// the largest request body the workload sends, so every request is
// buffered and replayable. The relay that streams bodies past the buffer
// loses requests at this commit (README, "Findings"), and a workload must
// not fail; only streamedProbe goes there, and counts what it loses.
func (p *prepared) replayBytes() int {
	n := 2 * p.sz.big * p.elemSize()
	for _, it := range p.hot {
		n = max(n, 2*int(it.rawBytes()))
	}
	return n
}

// streamBytes is the probe's replay buffer: twice a small request body,
// which at full size and float32 is cluster's 4 MiB default, so a big
// request streams past it.
func (sz sizes) streamBytes(elemSize int) int { return 2 * sz.window * elemSize }

// bigID marks the memo key (and the reported id) of a big window.
const bigID = 1 << 40

type rungKind int

const (
	rungCore rungKind = iota
	rungStream
	rungHandler
	rungLoopback
	rungProxy
	rungSim
)

var rungNames = [...]string{"core", "stream", "handler", "loopback", "proxy", "sim"}

// workloadDef is one named workload. The names are cited by later issues.
type workloadDef struct {
	name string
	why  string
	top  rungKind
	// oneShot: the top rung compresses each item as a single container
	// (no framing); the ladder's lower rungs still frame at sizes.chunk.
	oneShot bool
	// medianForm: throughput is bytes / median latency (sequential,
	// uniform operations); otherwise clients · Σ bytes / Σ latency.
	medianForm bool
	parallel   bool // C closed-loop clients instead of one
	cache      bool
	build      func(p *prepared, seed int64) error
}

var workloads = []*workloadDef{
	{
		name: "lib-smooth", top: rungCore, oneShot: true, medianForm: true,
		why:   "in-process one-shot codec on smooth float32 NYX fields; only the kernels and shard/stitch do work",
		build: buildLibSmooth,
	},
	{
		name: "lib-rough", top: rungStream, medianForm: true,
		why:   "in-process CSZF streaming of rough float64 HACC; wide bit-planes, the float64 twin and framing do the work",
		build: buildLibRough,
	},
	{
		name: "serve-cold", top: rungLoopback, parallel: true,
		why:   "loopback daemon, cache off, C closed-loop clients; codec plus body read/write plus net/http, no chunkcache",
		build: buildServeCold,
	},
	{
		name: "serve-warm", top: rungLoopback, parallel: true, cache: true,
		why:   "loopback daemon, 256 MiB cache, 4 of 5 requests repeat; SHA-256 and response write dominate, codec does not",
		build: buildServeWarm,
	},
	{
		name: "proxy-mixed", top: rungProxy, parallel: true, cache: true,
		why:   "proxy in front of two caching backends, half repeats, 2 MiB and 8 MiB bodies interleaved; only row where cluster works",
		build: buildProxyMixed,
	},
	{
		name: "wse-sim", top: rungSim, oneShot: true,
		why:   "discrete-event WSE simulator on three meshes; exact cycle counts guard the model, wall time guards the engine",
		build: buildWseSim,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// prepared is a workload set up and verified, ready to be timed.
type prepared struct {
	def     *workloadDef
	sz      sizes
	clients int
	seed    int64
	f64     bool
	// corpus is everything the workload's items are views into.
	corpus32 []float32
	corpus64 []float64
	// hot are the items whose library references exist before timing:
	// the whole input of the library workloads, the repeated windows of
	// the serving ones.
	hot   []*item
	sched schedule
	top   *rung
	// warm is the verification pass over hot through the top rung.
	warm summary

	freshMu sync.Mutex
	fresh   map[int64]*item
}

func (p *prepared) topRef() refKind {
	if p.def.oneShot {
		return refOneShot
	}
	return refFramed
}

// window returns small or big serving window k, memoized so the same
// fresh window is one item (and one library reference) on every rung.
func (p *prepared) window(k int64, big bool) *item {
	id, w, shift := k, p.sz.window, 0
	if big {
		id, w, shift = k+bigID, p.sz.big, p.sz.chunk/2
	}
	p.freshMu.Lock()
	it := p.fresh[id]
	p.freshMu.Unlock()
	if it != nil {
		return it
	}
	// Built outside the lock (it scans the window for its range); only the
	// worker that owns a fresh index ever builds it.
	it = window(p.corpus32, k, w, p.sz.chunk, shift)
	it.id = id
	p.freshMu.Lock()
	p.fresh[id] = it
	p.freshMu.Unlock()
	return it
}

// mix64 is splitmix64's finalizer: the per-operation draw of a schedule.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func (p *prepared) draw(w, j, n int) int {
	return int(mix64(uint64(p.seed)<<40^uint64(w)<<32^uint64(j)) % uint64(n))
}

func buildLibSmooth(p *prepared, seed int64) error {
	// baryon_density (~26×, mostly zero blocks) and velocity_x (~5.8×).
	for _, idx := range []int{2, 3} {
		f, err := field("NYX", p.sz.scale, idx, seed)
		if err != nil {
			return err
		}
		p.hot = append(p.hot, &item{id: int64(idx), f32: f, bound: ceresz.REL(relLambda)})
		p.corpus32 = append(p.corpus32, f...)
	}
	// One operation is both fields: alternating them would put the median
	// on the boundary between a fast and a slow mode.
	p.sched = func(w, j int) []*item { return p.hot }
	return nil
}

func buildLibRough(p *prepared, seed int64) error {
	p.f64 = true
	for idx := 0; idx < 3; idx++ { // x, y, z
		f, err := field("HACC", p.sz.scale, idx, seed)
		if err != nil {
			return err
		}
		p.hot = append(p.hot, &item{id: int64(idx), f64: widen(f), bound: ceresz.REL(relLambda)})
		p.corpus64 = append(p.corpus64, p.hot[idx].f64...)
	}
	p.sched = func(w, j int) []*item { return []*item{p.hot[j%len(p.hot)]} }
	return nil
}

// buildServing fills the NYX corpus and the hot windows.
func buildServing(p *prepared, seed int64, hotSmall, hotBig int) error {
	var err error
	p.corpus32, err = concatFields("NYX", p.sz.scale, seed, 2, 3, 4)
	if err != nil {
		return err
	}
	if len(p.corpus32) <= p.sz.big {
		return fmt.Errorf("corpus of %d elements cannot hold a %d-element window", len(p.corpus32), p.sz.big)
	}
	for k := 0; k < hotSmall; k++ {
		p.hot = append(p.hot, p.window(int64(k), false))
	}
	for k := 0; k < hotBig; k++ {
		p.hot = append(p.hot, p.window(int64(k), true))
	}
	return nil
}

func buildServeCold(p *prepared, seed int64) error {
	if err := buildServing(p, seed, p.sz.hot, 0); err != nil {
		return err
	}
	// The cache is off, so the daemon keeps no state between requests and
	// a pool of verified windows costs exactly what never-seen ones would.
	n := len(p.hot)
	p.sched = func(w, j int) []*item { return []*item{p.hot[(w*n/p.clients+j)%n]} }
	return nil
}

func buildServeWarm(p *prepared, seed int64) error {
	if err := buildServing(p, seed, p.sz.hot, 0); err != nil {
		return err
	}
	n := len(p.hot)
	p.sched = func(w, j int) []*item {
		if j%5 == 4 { // 1 in 5 never seen: p50 sits in the hit mode, p90 in the miss mode
			return []*item{p.window(int64(n+(j/5)*p.clients+w), false)}
		}
		return []*item{p.hot[p.draw(w, j, n)]}
	}
	return nil
}

func buildProxyMixed(p *prepared, seed int64) error {
	nSmall, nBig := p.sz.hot*3/4, p.sz.hot/4
	if err := buildServing(p, seed, nSmall, nBig); err != nil {
		return err
	}
	// A fixed cycle of eight keeps the shares exact: 1 in 4 big, half of
	// each size repeated.
	type slot struct{ big, hot bool }
	cycle := [8]slot{{false, true}, {false, false}, {false, true}, {true, false},
		{false, false}, {false, true}, {false, false}, {true, true}}
	p.sched = func(w, j int) []*item {
		s := cycle[j%8]
		fresh := int64((j/8)*p.clients + w) // this worker's fresh-window round
		switch {
		case s.big && s.hot:
			return []*item{p.hot[nSmall+p.draw(w, j, nBig)]}
		case s.big:
			return []*item{p.window(int64(nBig)+fresh, true)}
		case s.hot:
			return []*item{p.hot[p.draw(w, j, nSmall)]}
		default:
			// Three fresh small slots per cycle: j%8 ∈ {1, 4, 6}.
			return []*item{p.window(int64(nSmall)+3*fresh+int64(j%8)/3, false)}
		}
	}
	return nil
}

func buildWseSim(p *prepared, seed int64) error {
	f, err := field("NYX", datasets.Small, 3, seed)
	if err != nil {
		return err
	}
	p.corpus32 = f
	p.hot = []*item{{id: 3, f32: f, bound: ceresz.REL(relLambda)}}
	p.sched = func(w, j int) []*item { return p.hot }
	// The ladder's serving rungs run on this same small field.
	p.sz.window, p.sz.big, p.sz.chunk = 8<<10, 32<<10, 1<<10
	return nil
}

// rung is one started level of the ladder: a factory of per-worker paths
// plus whatever servers stand behind them.
type rung struct {
	kind  rungKind
	name  string // span name; the one-shot core rung is "core-oneshot"
	ref   refKind
	chunk int
	mk    func(w int) path
	halt  func() // stops the rung's servers; call stop, which does it once
	once  sync.Once

	backends []*telemetry.Registry // daemon registries, for cache and RED counters
	proxyReg *telemetry.Registry
	ring     func() *cluster.Ring
	samples  [][]serverSample // per worker, when traced
	sims     []*simPath
}

// newRung starts the servers a rung needs. oneShot selects the unframed
// core path; traced makes HTTP rungs keep Server-Timing trailers.
func newRung(p *prepared, kind rungKind, oneShot, traced bool) (*rung, error) {
	r := &rung{kind: kind, name: rungNames[kind], ref: refFramed, chunk: p.sz.chunk, halt: func() {}}
	cache := int64(0)
	if p.def.cache {
		cache = p.sz.cacheBytes
	}
	switch kind {
	case rungCore:
		if oneShot {
			r.name, r.ref, r.chunk = "core-oneshot", refOneShot, 0
		}
		r.mk = func(int) path { return &corePath{chunk: r.chunk, workers: 1} }
	case rungStream:
		r.mk = func(int) path { return &streamPath{chunk: r.chunk} }
	case rungHandler:
		reg := telemetry.NewRegistry()
		srv := server.New(server.Config{CacheBytes: cache, Registry: reg})
		h := srv.Handler()
		r.backends = []*telemetry.Registry{reg}
		r.mk = func(int) path { return &handlerPath{h: h, chunk: r.chunk} }
		r.halt = srv.Close
	case rungLoopback, rungProxy:
		var url, tenant string
		stop := func() {}
		if kind == rungLoopback {
			d, err := startDaemon(cache)
			if err != nil {
				return nil, err
			}
			url, stop = d.url, d.stop
			r.backends = []*telemetry.Registry{d.reg}
		} else {
			ps, err := startProxy(cache, r.chunk, p.replayBytes())
			if err != nil {
				return nil, err
			}
			url, tenant, stop = ps.front.url, "bench", ps.stop
			r.proxyReg, r.ring = ps.front.reg, ps.proxy.Ring
			for _, b := range ps.backends {
				r.backends = append(r.backends, b.reg)
			}
		}
		var transports []*http.Transport
		r.samples = make([][]serverSample, p.clients)
		var mu sync.Mutex
		r.mk = func(w int) path {
			c, t := newClient(url, r.chunk, tenant)
			mu.Lock()
			transports = append(transports, t)
			mu.Unlock()
			hp := &httpPath{c: c}
			if traced {
				hp.samples = &r.samples[w]
			}
			return hp
		}
		r.halt = func() {
			for _, t := range transports {
				t.CloseIdleConnections()
			}
			stop()
		}
	case rungSim:
		r.ref, r.chunk = refOneShot, 0
		var mu sync.Mutex
		r.mk = func(int) path {
			sp := &simPath{}
			mu.Lock()
			r.sims = append(r.sims, sp)
			mu.Unlock()
			return sp
		}
	}
	return r, nil
}

// stop stops whatever servers stand behind the rung, once.
func (r *rung) stop() { r.once.Do(r.halt) }

// pass sends every hot item through the rung once (three times on the
// simulator, so each mesh sees each item) and verifies it. On cached
// rungs this is also what makes the hot windows hot.
func (r *rung) pass(p *prepared) loopResult {
	ops := len(p.hot)
	if r.kind == rungSim {
		ops *= len(simMeshes)
	}
	return runLoop(loopConfig{
		name: r.name, ref: r.ref, chunk: r.chunk, clients: 1, maxOps: ops, mk: r.mk,
		sched: func(w, j int) []*item { return []*item{p.hot[j%len(p.hot)]} },
	})
}

// loop times the workload's own schedule on the rung for dur, starting
// every worker at operation from.
func (r *rung) loop(p *prepared, dur time.Duration, rec *recorder, from int) loopResult {
	return runLoop(loopConfig{
		name: r.name, ref: r.ref, chunk: r.chunk, clients: p.clients, dur: dur, firstOp: from,
		mk: r.mk, sched: p.sched, rec: rec,
	})
}

// prepare is one complete set-up: inputs from the seed, library
// references for the hot items, the top rung's servers, and the
// verification pass through it.
func prepare(def *workloadDef, sz sizes, seed int64, C int) (*prepared, error) {
	p := &prepared{def: def, sz: sz, seed: seed, clients: 1, fresh: map[int64]*item{}}
	if def.parallel {
		p.clients = C
	}
	if err := def.build(p, seed); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(p.hot))
	sem := make(chan struct{}, C) // references are CPU-bound: one per core
	for i, it := range p.hot {
		wg.Add(1)
		go func(i int, it *item) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = it.ref(p.topRef(), p.sz.chunk)
		}(i, it)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var err error
	p.top, err = newRung(p, def.top, def.oneShot, false)
	if err != nil {
		return nil, err
	}
	res := p.top.pass(p)
	if res.failed > 0 {
		p.top.stop()
		return nil, fmt.Errorf("verification pass: %d of %d operations failed: %w", res.failed, res.attempted, res.firstErr)
	}
	p.warm = summarize(res, 1, false)
	return p, nil
}
