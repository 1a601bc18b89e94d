// Command benchdiff compares two `go test -bench` output files the way
// benchstat does, without the external dependency: it groups samples by
// benchmark name, summarises ns/op (and MB/s when present) with median and
// mean, and reports old/new speedups as JSON on stdout.
//
// Usage:
//
//	go run ./cmd/benchdiff -old baseline.txt -new current.txt [-max-regress 40]
//
// Either flag may be omitted to summarise a single file (speedups are then
// omitted). Exit status is 2 on I/O or parse failure. With -max-regress PCT
// it also exits 1, after printing the report, when any benchmark present in
// both files has a new median ns/op more than PCT percent above the old one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark line's measurements.
type sample struct {
	nsPerOp float64
	mbPerS  float64 // 0 when the benchmark does not SetBytes
}

// summary aggregates all samples of one benchmark in one file.
type summary struct {
	N          int     `json:"n"`
	MedianNsOp float64 `json:"median_ns_op"`
	MeanNsOp   float64 `json:"mean_ns_op"`
	MinNsOp    float64 `json:"min_ns_op"`
	MaxNsOp    float64 `json:"max_ns_op"`
	MedianMBps float64 `json:"median_mb_s,omitempty"`
}

// diff is the per-benchmark comparison emitted to stdout.
type diff struct {
	Name    string   `json:"name"`
	Old     *summary `json:"old,omitempty"`
	New     *summary `json:"new,omitempty"`
	Speedup float64  `json:"speedup,omitempty"` // old median / new median
	Delta   string   `json:"delta,omitempty"`   // e.g. "-58.3%"
}

// parseBench reads a `go test -bench` output file into name → samples.
// Names are normalised by stripping the trailing -GOMAXPROCS suffix so
// runs from machines with different core counts still line up.
func parseBench(path string) (map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]sample)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var s sample
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = v
				ok = true
			case "MB/s":
				s.mbPerS = v
			}
		}
		if ok {
			out[name] = append(out[name], s)
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func summarise(samples []sample) *summary {
	ns := make([]float64, 0, len(samples))
	mb := make([]float64, 0, len(samples))
	var sum float64
	min, max := 0.0, 0.0
	for _, s := range samples {
		ns = append(ns, s.nsPerOp)
		sum += s.nsPerOp
		if min == 0 || s.nsPerOp < min {
			min = s.nsPerOp
		}
		if s.nsPerOp > max {
			max = s.nsPerOp
		}
		if s.mbPerS > 0 {
			mb = append(mb, s.mbPerS)
		}
	}
	return &summary{
		N:          len(samples),
		MedianNsOp: median(ns),
		MeanNsOp:   sum / float64(len(samples)),
		MinNsOp:    min,
		MaxNsOp:    max,
		MedianMBps: median(mb),
	}
}

// regressions lists the paired benchmarks whose new median ns/op exceeds
// the old one by more than pct percent.
func regressions(diffs []diff, pct float64) []string {
	var out []string
	for _, d := range diffs {
		if d.Old == nil || d.New == nil || d.Old.MedianNsOp <= 0 {
			continue
		}
		if slower := 100 * (d.New.MedianNsOp - d.Old.MedianNsOp) / d.Old.MedianNsOp; slower > pct {
			out = append(out, fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%%)", d.Name, d.Old.MedianNsOp, d.New.MedianNsOp, slower))
		}
	}
	return out
}

func main() {
	oldPath := flag.String("old", "", "baseline `go test -bench` output file")
	newPath := flag.String("new", "", "current `go test -bench` output file")
	maxRegress := flag.Float64("max-regress", 0, "with -old and -new, exit 1 when any paired benchmark's median ns/op is more than `PCT` percent slower (0 = report only)")
	flag.Parse()
	if *oldPath == "" && *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -old and/or -new")
		os.Exit(2)
	}

	load := func(path string) map[string][]sample {
		if path == "" {
			return nil
		}
		m, err := parseBench(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		return m
	}
	oldRuns := load(*oldPath)
	newRuns := load(*newPath)

	names := make(map[string]bool)
	for n := range oldRuns {
		names[n] = true
	}
	for n := range newRuns {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	diffs := make([]diff, 0, len(sorted))
	for _, n := range sorted {
		d := diff{Name: n}
		if s, ok := oldRuns[n]; ok {
			d.Old = summarise(s)
		}
		if s, ok := newRuns[n]; ok {
			d.New = summarise(s)
		}
		if d.Old != nil && d.New != nil && d.New.MedianNsOp > 0 {
			d.Speedup = d.Old.MedianNsOp / d.New.MedianNsOp
			d.Delta = fmt.Sprintf("%+.1f%%", 100*(d.New.MedianNsOp-d.Old.MedianNsOp)/d.Old.MedianNsOp)
		}
		diffs = append(diffs, d)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"benchmarks": diffs}); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if *maxRegress > 0 {
		if bad := regressions(diffs, *maxRegress); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "benchdiff: slower by more than %g%%:\n  %s\n", *maxRegress, strings.Join(bad, "\n  "))
			os.Exit(1)
		}
	}
}
