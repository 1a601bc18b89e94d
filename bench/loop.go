package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"time"
)

// schedule names the items worker w's j-th operation processes. It is a
// pure function of (w, j) and the seed, so the same operation can be
// replayed through every rung of the ladder.
type schedule func(w, j int) []*item

// opSample is one successful operation: every item of the group
// compressed, then every returned stream decompressed, all verified.
type opSample struct {
	w, j       int
	start      int64 // ns since epoch, compress side
	cNs, dNs   int64 // latency summed over the group
	dStart     int64
	raw, comp  int64
	errOverEps float64
}

// loopResult is what one closed loop measured.
type loopResult struct {
	ops       []opSample
	attempted int // compress and decompress calls count one each
	failed    int
	firstErr  error
	wall      time.Duration
	nextOp    int // first operation index no worker reached
}

// epoch is the origin of span timestamps, so spans of loops that ran one
// after another do not overlap.
var epoch = time.Now()

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// pendingCheck is an operation whose item had no library reference yet
// when it ran (a never-seen window): its digests are checked after the
// timed section, so computing the reference never competes with a timed
// request for a core.
type pendingCheck struct {
	it       *item
	op       int // index into the worker's ops
	compHash uint64
	compLen  int
	decHash  uint64
}

type loopConfig struct {
	name    string // span name
	ref     refKind
	chunk   int // framing chunk of the reference
	clients int
	dur     time.Duration
	maxOps  int // per worker; 0 = until dur
	firstOp int // each worker's first operation index: lets a loop continue another's sequence
	sched   schedule
	mk      func(w int) path
	rec     *recorder
}

// runLoop runs cfg.clients closed-loop workers: each sends its next
// operation only after the previous one completed and was checked. Every
// output is verified against the library — compressed bytes and decoded
// values by digest, the decode's error against the raw input through the
// reference — and any mismatch is a failed operation.
func runLoop(cfg loopConfig) loopResult {
	type workerOut struct {
		ops       []opSample
		pending   []pendingCheck
		attempted int
		failed    int
		next      int
		err       error
	}
	outs := make([]workerOut, cfg.clients)
	t0 := time.Now()
	deadline := t0.Add(cfg.dur)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			p := cfg.mk(w)
			fail := func(n int, err error) {
				out.failed += n
				if out.err == nil {
					out.err = err
				}
			}
			for j := cfg.firstOp; ; j++ {
				out.next = j
				if cfg.maxOps > 0 && j >= cfg.firstOp+cfg.maxOps {
					return
				}
				if cfg.maxOps == 0 && !time.Now().Before(deadline) {
					return
				}
				group := cfg.sched(w, j)
				op := opSample{w: w, j: j, start: time.Since(epoch).Nanoseconds()}
				out.attempted += 2 * len(group)
				// A path's buffer is only valid until its next compress,
				// so a group's earlier streams are copied aside.
				comps := make([][]byte, len(group))
				ok := true
				for g, it := range group {
					ts := time.Now()
					comp, err := p.compress(it)
					op.cNs += time.Since(ts).Nanoseconds()
					if err != nil {
						fail(2*(len(group)-g), fmt.Errorf("%s compress item %d: %w", cfg.name, it.id, err))
						ok = false
						break
					}
					if len(group) > 1 {
						comp = append([]byte(nil), comp...)
					}
					comps[g] = comp
					op.raw += it.rawBytes()
					op.comp += int64(len(comp))
				}
				if !ok {
					continue
				}
				op.dStart = time.Since(epoch).Nanoseconds()
				for g, it := range group {
					ts := time.Now()
					dec, err := p.decompress(it, comps[g])
					op.dNs += time.Since(ts).Nanoseconds()
					if err != nil {
						fail(len(group)-g, fmt.Errorf("%s decompress item %d: %w", cfg.name, it.id, err))
						ok = false
						break
					}
					chk := pendingCheck{it: it, op: len(out.ops), compHash: maphash.Bytes(hashSeed, comps[g]),
						compLen: len(comps[g]), decHash: dec.hash(it)}
					it.mu.Lock()
					ref := it.refs[cfg.ref]
					it.mu.Unlock()
					if ref == nil {
						out.pending = append(out.pending, chk)
						continue
					}
					if err := chk.verify(ref, cfg.name); err != nil {
						fail(1, err)
						ok = false
						break
					}
					op.errOverEps = math.Max(op.errOverEps, ref.errOverEps)
				}
				if !ok {
					continue
				}
				out.ops = append(out.ops, op)
				if cfg.rec != nil {
					id := int64(w)<<32 | int64(j)
					cfg.rec.add(span{Name: cfg.name + ".compress", Start: op.start, End: op.start + op.cNs, OpID: id, Parent: -1})
					cfg.rec.add(span{Name: cfg.name + ".decompress", Start: op.dStart, End: op.dStart + op.dNs, OpID: id, Parent: -1})
				}
			}
		}(w)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(t0)}

	// Deferred checks, spread over the same number of goroutines.
	var pwg sync.WaitGroup
	for w := range outs {
		pwg.Add(1)
		go func(out *workerOut) {
			defer pwg.Done()
			bad := map[int]bool{}
			for _, chk := range out.pending {
				ref, err := chk.it.ref(cfg.ref, cfg.chunk)
				if err == nil {
					err = chk.verify(ref, cfg.name)
				}
				if err != nil {
					out.failed++
					if out.err == nil {
						out.err = err
					}
					bad[chk.op] = true
					continue
				}
				out.ops[chk.op].errOverEps = math.Max(out.ops[chk.op].errOverEps, ref.errOverEps)
			}
			if len(bad) > 0 {
				kept := out.ops[:0]
				for i, op := range out.ops {
					if !bad[i] {
						kept = append(kept, op)
					}
				}
				out.ops = kept
			}
		}(&outs[w])
	}
	pwg.Wait()
	for _, out := range outs {
		res.ops = append(res.ops, out.ops...)
		res.attempted += out.attempted
		res.failed += out.failed
		res.nextOp = max(res.nextOp, out.next)
		if res.firstErr == nil {
			res.firstErr = out.err
		}
	}
	return res
}

func (c pendingCheck) verify(ref *reference, rung string) error {
	switch {
	case c.compLen != ref.compLen || c.compHash != ref.compHash:
		return fmt.Errorf("%s: compressed bytes of item %d differ from the library's (%d vs %d bytes)",
			rung, c.it.id, c.compLen, ref.compLen)
	case c.decHash != ref.decHash:
		return fmt.Errorf("%s: decoded values of item %d differ from the library's", rung, c.it.id)
	case !(ref.errOverEps <= 1):
		return fmt.Errorf("%s: item %d breaks the error bound: max|v-v'| = %.6g ε", rung, c.it.id, ref.errOverEps)
	}
	return nil
}

// summary is a loop reduced to the end-to-end numbers.
type summary struct {
	compressMBps, decompressMBps float64
	cP50, cP90, cP99             float64 // ms
	dP50, dP90, dP99             float64
	samples                      int
	smallSample                  bool // a quoted percentile lacks ten samples beyond it
	ratio, errOverEps            float64
}

// segments is how many consecutive parts of a run the steady estimators
// look at.
const segments = 5

// bestTwo is the mean of the two best of the per-fifth values.
func bestTwo(per []float64, lowerIsBetter bool) float64 {
	s := sortedCopy(per)
	if lowerIsBetter {
		return (s[0] + s[1]) / 2
	}
	return (s[len(s)-1] + s[len(s)-2]) / 2
}

// steadyPercentile is the p-th percentile of chrono, latencies in the
// order the operations started: each consecutive fifth of the run gives
// its own rank-interpolated percentile, and the result is the mean of the
// two lowest. On a shared machine interference only ever slows a run, and
// it comes in bursts: the two best fifths are the four seconds the
// neighbours left alone, which is what repeats from run to run (README,
// "Why two fifths"). supported is the whole run's: ten samples beyond its
// own p-th percentile.
func steadyPercentile(chrono []float64, p float64) (v float64, supported bool) {
	v, supported = percentile(sortedCopy(chrono), p)
	if len(chrono) < 2*segments {
		return v, supported
	}
	per := make([]float64, segments)
	for i := range per {
		lo, hi := i*len(chrono)/segments, (i+1)*len(chrono)/segments
		per[i], _ = percentile(sortedCopy(chrono[lo:hi]), p)
	}
	return bestTwo(per, true), supported
}

// summarize reduces a loop. medianForm selects raw bytes / median latency
// (uniform-size sequential loops); otherwise throughput is
// clients · Σ raw bytes / Σ latency over successful operations. Both are
// taken per fifth of the run, then over the two best fifths.
func summarize(res loopResult, clients int, medianForm bool) summary {
	n := len(res.ops)
	s := summary{samples: n}
	if n == 0 {
		return s
	}
	ops := append([]opSample(nil), res.ops...)
	sort.Slice(ops, func(a, b int) bool { return ops[a].start < ops[b].start })
	c := make([]float64, n)
	d := make([]float64, n)
	var raw, comp float64
	for i, op := range ops {
		c[i] = float64(op.cNs) / 1e6
		d[i] = float64(op.dNs) / 1e6
		raw += float64(op.raw)
		comp += float64(op.comp)
		s.errOverEps = math.Max(s.errOverEps, op.errOverEps)
	}
	s.ratio = raw / comp
	var ok50, ok90 bool
	s.cP50, ok50 = steadyPercentile(c, 50)
	s.cP90, ok90 = steadyPercentile(c, 90)
	s.cP99, _ = steadyPercentile(c, 99)
	s.dP50, _ = steadyPercentile(d, 50)
	s.dP90, _ = steadyPercentile(d, 90)
	s.dP99, _ = steadyPercentile(d, 99)
	s.smallSample = !ok50 || !ok90
	if medianForm {
		per := raw / float64(n)
		s.compressMBps = per / 1e6 / (s.cP50 / 1e3)
		s.decompressMBps = per / 1e6 / (s.dP50 / 1e3)
	} else {
		bytes := make([]float64, n)
		for i, op := range ops {
			bytes[i] = float64(op.raw)
		}
		s.compressMBps = float64(clients) * steadyRate(bytes, c) / 1e3
		s.decompressMBps = float64(clients) * steadyRate(bytes, d) / 1e3
	}
	return s
}

// steadyRate is Σ bytes / Σ ms, taken like steadyPercentile: per fifth of
// the run, then the mean of the two highest.
func steadyRate(bytes, ms []float64) float64 {
	if len(ms) < 2*segments {
		return sum(bytes) / sum(ms)
	}
	per := make([]float64, segments)
	for i := range per {
		lo, hi := i*len(ms)/segments, (i+1)*len(ms)/segments
		per[i] = sum(bytes[lo:hi]) / sum(ms[lo:hi])
	}
	return bestTwo(per, false)
}
