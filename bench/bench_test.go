package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/maphash"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// chunkDigests returns an identity for every chunk of v: the maphash of
// its little-endian bytes.
func chunkDigests(v []float32, chunk int) []uint64 {
	var out []uint64
	buf := make([]byte, 4*chunk)
	for lo := 0; lo < len(v); lo += chunk {
		hi := min(lo+chunk, len(v))
		b := buf[:4*(hi-lo)]
		for i, x := range v[lo:hi] {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
		}
		out = append(out, maphash.Bytes(hashSeed, b))
	}
	return out
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{21, 50, 11, true},
		{20, 50, 10.5, false}, // nine samples beyond the upper neighbour
		{100, 90, 90.1, false},
		{101, 90, 91, true},
		{1000, 99, 990.01, false},
		{1001, 99, 991, true},
		{1, 90, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if math.Abs(got-c.want) > 1e-9 || ok != c.supported {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.supported)
		}
	}
	if v, ok := percentile(nil, 50); !math.IsNaN(v) || ok {
		t.Errorf("percentile of nothing = %v, %v", v, ok)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 7, 11}, 5, 11},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "loopback", Start: 0, End: 100, Parent: -1},
		{Name: "handler", Start: 200, End: 270, Parent: 0}, // a replay: outside the parent's interval
		{Name: "stream", Start: 300, End: 360, Parent: 1},
		{Name: "core", Start: 400, End: 490, Parent: 2}, // longer than its parent: covers all of it
	}
	got := selfTimes(spans)
	want := map[string]float64{"loopback": 30, "handler": 10, "stream": 0, "core": 90}
	for name, w := range want {
		if len(got[name]) != 1 || got[name][0] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	// The self times of a chain whose children fit add up to the root.
	fit := []span{{Name: "a", End: 100, Parent: -1}, {Name: "b", End: 60, Parent: 0}, {Name: "c", End: 25, Parent: 1}}
	var total float64
	for _, v := range selfTimes(fit) {
		total += v[0]
	}
	if total != 100 {
		t.Errorf("self times sum to %v, want the root's 100", total)
	}
}

// No two windows of a run may share a chunk, or a "never seen" window
// would hit the chunk cache. At full geometry that is arithmetic on the
// window starts; at smoke size the chunks themselves are compared.
func TestWindowsShareNoChunk(t *testing.T) {
	sz := fullSizes
	corpus := 3 * (2 << 20) // three NYX Medium fields
	starts := map[int]string{}
	for _, big := range []bool{false, true} {
		w, shift, kind := sz.window, 0, "small"
		if big {
			w, shift, kind = sz.big, sz.chunk/2, "big"
		}
		span := int64((corpus - w - shift) / sz.chunk * sz.chunk)
		for k := int64(0); k < 4096; k++ {
			off := int(k*windowStride%span) + shift
			if off+w > corpus {
				t.Fatalf("%s window %d overruns the corpus", kind, k)
			}
			if prev, dup := starts[off%sz.chunk]; dup {
				t.Fatalf("%s window %d starts on the chunk grid of %s", kind, k, prev)
			}
			starts[off%sz.chunk] = kind + " window"
		}
	}

	p := &prepared{def: workloadByName("proxy-mixed"), sz: checkSizes, seed: 7, clients: 2, fresh: map[int64]*item{}}
	if err := p.def.build(p, 7); err != nil {
		t.Fatal(err)
	}
	visited := map[*item]bool{}
	owner := map[uint64]int64{}
	for j := 0; j < 64; j++ {
		for w := 0; w < p.clients; w++ {
			for _, it := range p.sched(w, j) {
				if visited[it] {
					continue // a repeat of a hot window, by design
				}
				visited[it] = true
				for _, d := range chunkDigests(it.f32, p.sz.chunk) {
					if other, dup := owner[d]; dup {
						t.Fatalf("windows %d and %d share a chunk", it.id, other)
					}
					owner[d] = it.id
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "compress_p50_ms", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "compress_mbps", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		d          metricDef
		base, cand []float64
		want       string
	}{
		{lat, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "PASS"},
		{lat, []float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, "REGRESS"},
		{lat, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "PASS"}, // better is never a regression
		{thr, []float64{100, 101, 99}, []float64{85, 86, 84}, "REGRESS"},
		{thr, []float64{100, 101, 99}, []float64{120, 121, 119}, "PASS"},
		{lat, []float64{10, 13, 8}, []float64{12, 12.1, 11.9}, "UNRESOLVED"}, // baseline spread wider than the bound
	} {
		if _, got := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.base, c.cand, got, c.want)
		}
	}
}

// BENCHMARK.json is generated from the tables in metrics.go and
// workloads.go; this holds the file to them and to the contract's limits.
func TestManifest(t *testing.T) {
	var gen bytes.Buffer
	if err := writeManifest(&gen); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gen.Bytes(), onDisk) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(onDisk, &m); err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	// 4 + 22 runs per workload, each set-up included, inside 3420 s.
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+10) > 3420-120 {
		t.Errorf("%d runs of %d s leave no room for set-up and two builds", runs, m.RunSeconds)
	}
	names := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	sawSetup := false
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s", d.Unit, d.Name)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("better %q of %s", d.Better, d.Name)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s", d.Bound, d.Name)
		}
		if d.Name == "setup_s" {
			sawSetup = d.Unit == "s" && d.Better == lower
			for _, e := range m.EndToEnd {
				if e.Bound > d.Bound {
					t.Errorf("setup_s should carry the largest bound, %s has %v", e.Name, e.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// TestCheck is -check in process: every workload, both passes, at smoke
// size. It holds the output to the schema: every declared metric emitted
// by every workload, every number finite, nothing failed (which includes
// runWorkload's cache-share assertions on serve-warm and serve-cold).
func TestCheck(t *testing.T) {
	out := io.Discard
	if testing.Verbose() {
		out = os.Stdout
	}
	r, err := check(7, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want an untraced and a traced one for each of %d workloads", len(r.Runs), len(workloads))
	}
	for _, run := range r.Runs {
		defs := endToEnd
		if run.Trace {
			defs = perLayer
		}
		if run.Failed != 0 || !run.Correct || run.Attempted < 1 {
			t.Errorf("%s trace=%v: %d of %d operations failed: %s", run.Workload, run.Trace, run.Failed, run.Attempted, run.FirstError)
		}
		if len(run.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", run.Workload, run.Trace, len(run.Metrics), len(defs))
		}
		for _, d := range defs {
			mv, ok := run.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", run.Workload, d.Name)
			case mv.Value == nil:
				if !parallelOnly[d.Name] || r.Env.GOMAXPROCS > 1 {
					t.Errorf("%s: metric %s is null", run.Workload, d.Name)
				}
			case math.IsNaN(*mv.Value) || math.IsInf(*mv.Value, 0):
				t.Errorf("%s: metric %s is %v", run.Workload, d.Name, *mv.Value)
			case !run.Trace && *mv.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", run.Workload, d.Name)
			case mv.Unit != d.Unit:
				t.Errorf("%s: metric %s has unit %q, want %q", run.Workload, d.Name, mv.Unit, d.Unit)
			}
		}
		line, err := driverLine(&run)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
			t.Errorf("driver line %s: want exactly correct, attempted, failed, metrics", line)
		}
	}
}
