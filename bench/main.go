// Command bench is the repository's benchmark: six named workloads driven
// through the public functions of every layer — codec kernels, host pool,
// CSZF streaming, chunk cache, server handler, loopback daemon, cluster
// proxy and the WSE simulator — reporting the end-to-end metrics and,
// with -trace 1, the per-layer ones declared in BENCHMARK.json. Every
// output byte is verified against the library. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metrics maps a metric name to its value; nil is "not measurable here"
// (a parallel metric on one CPU) and is printed as null.
type metrics map[string]*float64

func (m metrics) set(name string, v float64) { m[name] = &v }
func (m metrics) null(name string)           { m[name] = nil }
func (m metrics) get(name string) float64 {
	if v := m[name]; v != nil {
		return *v
	}
	return math.NaN()
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// runReport is one workload run in the rich report (-out).
type runReport struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       bool                   `json:"trace"`
	TimedS      float64                `json:"timed_seconds"`
	Clients     int                    `json:"clients"`
	Samples     int                    `json:"samples"`
	SmallSample bool                   `json:"small_sample"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"ops_attempted"`
	Failed      int                    `json:"ops_failed"`
	FirstError  string                 `json:"first_error,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// envBlock says where and on what a report was recorded.
type envBlock struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	C          int    `json:"c"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
	CPUModel   string `json:"cpu_model"`
	L2KiB      int    `json:"l2_kib"`
	L3KiB      int    `json:"l3_kib"`
}

type report struct {
	Env  envBlock    `json:"env"`
	Runs []runReport `json:"runs"`
}

func environment(C int) envBlock {
	l2, l3 := cacheKiB()
	e := envBlock{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), C: C, GoVersion: runtime.Version(),
		GitRev: "unknown", CPUModel: cpuModel(), L2KiB: l2, L3KiB: l3}
	// Output waits for git to exit; outside a work tree both calls fail
	// and the revision stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return e
}

// clientCount is C: clients, connections and Options.Workers of every
// parallel number.
func clientCount() int { return min(runtime.GOMAXPROCS(0), 4) }

// runOptions is one workload run's parameters.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	traceOut string
}

// runWorkload sets a workload up (sz.setups times; setup_s is the median),
// measures it, and returns its report. An error means the run could not
// be measured at all; failed operations are in the report.
func runWorkload(o runOptions) (*runReport, error) {
	def := workloadByName(o.workload)
	if def == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	C := clientCount()
	setups := o.sz.setups
	if o.trace {
		setups = 1 // setup_s is an end-to-end metric: the traced pass does not report it
	}
	var p *prepared
	var setupS []float64
	for i := 0; i < setups; i++ {
		if p != nil {
			// Tear the previous set-up down completely, memory included,
			// so peak_rss_mb is one set-up's and not three's.
			p.top.stop()
			p = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		p, err = prepare(def, o.sz, o.seed, C)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { p.top.stop() }()

	rep := &runReport{Workload: def.name, Seed: o.seed, Trace: o.trace, TimedS: o.seconds, Clients: p.clients,
		Metrics: map[string]metricValue{}}
	var m metrics
	defs := endToEnd
	if o.trace {
		l, err := runLadder(p, C, o.seconds)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", def.name, err)
		}
		m, defs = l.m, perLayer
		rep.Attempted, rep.Failed, rep.Samples = l.attempted, l.failed, len(l.rec.spans)
		if l.firstErr != nil {
			rep.FirstError = l.firstErr.Error()
		}
		if err := assertCacheShare(def, m); err != nil {
			rep.Failed++
			rep.FirstError = err.Error()
		}
		if o.traceOut != "" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return nil, err
			}
			err = writeChromeTrace(f, l.rec.spans)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("writing %s: %w", o.traceOut, err)
			}
		}
	} else {
		res := p.top.loop(p, time.Duration(o.seconds*float64(time.Second)), nil, 0)
		s := summarize(res, p.clients, def.medianForm)
		rep.Attempted, rep.Failed, rep.Samples, rep.SmallSample = res.attempted, res.failed, s.samples, s.smallSample
		if res.firstErr != nil {
			rep.FirstError = res.firstErr.Error()
		}
		if s.samples == 0 {
			return nil, fmt.Errorf("%s: no operation succeeded: %v", def.name, res.firstErr)
		}
		m = metrics{}
		m.set("setup_s", median(setupS))
		m.set("peak_rss_mb", peakRSSMiB())
		m.set("compress_mbps", s.compressMBps)
		m.set("decompress_mbps", s.decompressMBps)
		m.set("compress_p50_ms", s.cP50)
		m.set("compress_p90_ms", s.cP90)
		m.set("decompress_p50_ms", s.dP50)
		m.set("decompress_p90_ms", s.dP90)
		// ratio and max_err_over_eps come from the verification pass over
		// the hot items — a fixed set — so they repeat exactly on a seed
		// however many operations the timed section fits in.
		m.set("ratio", p.warm.ratio)
		m.set("max_err_over_eps", math.Max(p.warm.errOverEps, 0))
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", def.name, d.Name)
		}
		if v != nil && (math.IsNaN(*v) || math.IsInf(*v, 0)) {
			return nil, fmt.Errorf("%s: metric %s is %v", def.name, d.Name, *v)
		}
		rep.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// assertCacheShare holds the two workloads that exist to be on either
// side of the chunk cache to their side of it.
func assertCacheShare(def *workloadDef, m metrics) error {
	share := m.get("chunkcache.hit_share")
	switch {
	case def.name == "serve-warm" && share < 0.7:
		return fmt.Errorf("serve-warm: chunkcache.hit_share %.3f < 0.7: the warm workload is not warm", share)
	case def.name == "serve-cold" && share != 0:
		return fmt.Errorf("serve-cold: chunkcache.hit_share %.3f != 0: the cold workload hit a cache", share)
	}
	return nil
}

// printTable prints a run's metrics by name, with unit.
func printTable(w io.Writer, rep *runReport) {
	pass := "end-to-end"
	if rep.Trace {
		pass = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %.3gs timed  %d clients  %d samples", rep.Workload, rep.Seed, pass, rep.TimedS, rep.Clients, rep.Samples)
	if rep.SmallSample {
		fmt.Fprint(w, "  (small sample: a quoted percentile has fewer than ten samples beyond it)")
	}
	fmt.Fprintf(w, "\n  ops_attempted %d  ops_failed %d\n", rep.Attempted, rep.Failed)
	if rep.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", rep.FirstError)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := rep.Metrics[n]
		if mv.Value == nil {
			fmt.Fprintf(w, "  %-34s %14s %s\n", n, "null", mv.Unit)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, *mv.Value, mv.Unit)
		}
	}
}

// driverLine is the contract's last line of standard output.
func driverLine(rep *runReport) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]mv{}}
	for n, v := range rep.Metrics {
		if v.Value != nil { // a null metric is left out: the driver then refuses the run
			line.Metrics[n] = mv{*v.Value, v.Unit}
		}
	}
	return json.Marshal(line)
}

func writeReport(path string, r report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload, untraced then traced, each in a child
// process of this same binary so peak_rss_mb stays per workload, and
// merges their reports.
func runAll(seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".", "bench-all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	merged := report{Env: environment(clientCount())}
	failed := false
	for _, def := range workloads {
		for _, trace := range []string{"0", "1"} {
			part := filepath.Join(dir, def.name+"-"+trace+".json")
			cmd := exec.Command(self, "-workload", def.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil { // Run waits for the child to exit
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					return err
				}
				failed = true
			}
			b, err := os.ReadFile(part)
			if err != nil {
				continue // the child failed before it could report
			}
			var r report
			if err := json.Unmarshal(b, &r); err != nil {
				return fmt.Errorf("%s: %w", part, err)
			}
			merged.Runs = append(merged.Runs, r.Runs...)
		}
	}
	if out != "" {
		if err := writeReport(out, merged); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("at least one workload failed")
	}
	return nil
}

// check is the whole suite at smoke size, in process: every workload,
// both passes, inputs shrunk.
func check(seed int64, w io.Writer) (report, error) {
	r := report{Env: environment(clientCount())}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(runOptions{workload: def.name, seed: seed, seconds: 0.3, trace: trace, sz: checkSizes})
			if err != nil {
				return r, err
			}
			printTable(w, rep)
			r.Runs = append(r.Runs, *rep)
			if !rep.Correct {
				return r, fmt.Errorf("%s: %d of %d operations failed: %s", def.name, rep.Failed, rep.Attempted, rep.FirstError)
			}
		}
	}
	return r, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (one process runs one workload)")
		seed     = flag.Int64("seed", 7, "seed of the dataset generators and the request order")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed section measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: the traced pass, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
		out      = flag.String("out", "", "write the full report (environment, sample counts, every metric) as JSON to this file")
		all      = flag.Bool("all", false, "run every workload, both passes, one child process each")
		doCheck  = flag.Bool("check", false, "run the whole suite at smoke size (seconds, not minutes)")
		compare  = flag.Bool("compare", false, "compare two sets of reports: -compare A.json[,A2.json...] B.json[,B2.json...]")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *manifest:
			return writeManifest(os.Stdout)
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("-compare takes two arguments: the baseline reports and the candidate reports")
			}
			return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *doCheck:
			r, err := check(*seed, os.Stdout)
			if err == nil && *out != "" {
				err = writeReport(*out, r)
			}
			return err
		case *all:
			return runAll(*seed, *seconds, *out)
		}
		rep, err := runWorkload(runOptions{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			sz: fullSizes, traceOut: *traceOut})
		if err != nil {
			return err
		}
		printTable(os.Stdout, rep)
		if *out != "" {
			if err := writeReport(*out, report{Env: environment(clientCount()), Runs: []runReport{*rep}}); err != nil {
				return err
			}
		}
		line, err := driverLine(rep)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !rep.Correct {
			// The result is printed; the exit code says it is not a clean one.
			os.Exit(1)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}
