package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// set is the runs of one side of a comparison, grouped by workload and
// metric.
type set struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

func loadSet(paths string) (*set, error) {
	s := &set{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range r.Runs {
			if s.values[run.Workload] == nil {
				s.values[run.Workload] = map[string][]float64{}
			}
			s.attempted[run.Workload] += run.Attempted
			s.failed[run.Workload] += run.Failed
			for name, mv := range run.Metrics {
				if mv.Value != nil {
					s.values[run.Workload][name] = append(s.values[run.Workload][name], *mv.Value)
				}
			}
		}
	}
	return s, nil
}

// spread is a set's run-to-run spread as a share of its median: the
// distance between the quartiles with four runs or more, the range with
// two or three, unknown (0) with one.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(xs)
	lo, hi := s[0], s[len(s)-1]
	if len(xs) >= 4 {
		lo, hi = quartiles(xs)
	}
	return math.Abs((hi - lo) / med)
}

// verdict grades one (workload, end-to-end metric) row: how much worse the
// candidate's median is than the baseline's, against the metric's bound.
// A spread wider than the bound on either side leaves the row unresolved,
// which is not the same as unchanged.
func verdict(d metricDef, base, cand []float64) (worse float64, status string) {
	b, c := median(base), median(cand)
	worse = (c - b) / math.Abs(b)
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case math.Max(spread(base), spread(cand)) > d.Bound:
		return worse, "UNRESOLVED"
	case worse > d.Bound:
		return worse, "REGRESS"
	}
	return worse, "PASS"
}

// manifestBounds reads the bounds stored in BENCHMARK.json, looked for in
// the working directory and its parent (the bench runs from either).
func manifestBounds() (map[string]float64, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var m struct {
			EndToEnd []metricDef `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := map[string]float64{}
		for _, d := range m.EndToEnd {
			out[d.Name] = d.Bound
		}
		return out, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// compareReports prints one row per (workload, end-to-end metric) with
// both medians, the change and its verdict, then whether the metrics that
// should repeat exactly did. It returns an error on any REGRESS or on a
// larger share of failed operations.
func compareReports(w io.Writer, basePaths, candPaths string) error {
	base, err := loadSet(basePaths)
	if err != nil {
		return err
	}
	cand, err := loadSet(candPaths)
	if err != nil {
		return err
	}
	bounds, err := manifestBounds()
	if err != nil {
		return err
	}
	var regress, unresolved, changed int
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "cand median", "worse by", "bound", "verdict")
	for _, def := range workloads {
		bv, cv := base.values[def.name], cand.values[def.name]
		if bv == nil || cv == nil {
			continue
		}
		for _, d := range endToEnd {
			if len(bv[d.Name]) == 0 || len(cv[d.Name]) == 0 {
				continue
			}
			d.Bound = bounds[d.Name]
			worse, status := verdict(d, bv[d.Name], cv[d.Name])
			switch status {
			case "REGRESS":
				regress++
			case "UNRESOLVED":
				unresolved++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s (%d vs %d runs)\n", def.name, d.Name,
				median(bv[d.Name]), median(cv[d.Name]), 100*worse, 100*d.Bound, status, len(bv[d.Name]), len(cv[d.Name]))
		}
		var names []string
		for name := range bv {
			if exact[name] && len(cv[name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			same := "identical"
			if median(bv[name]) != median(cv[name]) || spread(bv[name]) != 0 || spread(cv[name]) != 0 {
				same = "CHANGED"
				changed++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.9g %14.9g  exact metric: %s\n", def.name, name, median(bv[name]), median(cv[name]), same)
		}
		bf := float64(base.failed[def.name]) / math.Max(1, float64(base.attempted[def.name]))
		cf := float64(cand.failed[def.name]) / math.Max(1, float64(cand.attempted[def.name]))
		if cf > bf {
			regress++
			fmt.Fprintf(w, "%-12s failed operations rose from %d/%d to %d/%d: REGRESS\n", def.name,
				base.failed[def.name], base.attempted[def.name], cand.failed[def.name], cand.attempted[def.name])
		}
	}
	fmt.Fprintf(w, "%d REGRESS, %d UNRESOLVED, %d exact metrics changed (exact metrics only repeat on one seed)\n", regress, unresolved, changed)
	if regress > 0 {
		return fmt.Errorf("%d regressions", regress)
	}
	return nil
}
