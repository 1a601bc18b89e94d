package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file holds the strict exposition gate: instead of grepping for a
// few known substrings, every line of /debug/metrics is parsed against
// the Prometheus text format — names sanitized to the metric charset,
// every family introduced by a # HELP line and a # TYPE line before its
// first sample, every value float-parsable, and counters monotone across
// scrapes racing concurrent writers.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe      = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
	typeRe       = regexp.MustCompile(`^(counter|gauge|summary|histogram|untyped)$`)
)

// parsedExposition is one scrape, decomposed.
type parsedExposition struct {
	help    map[string]string  // family -> help text
	types   map[string]string  // family -> type
	samples map[string]float64 // full sample name (labels included) -> value
}

// sampleFamily maps a sample name to the family its HELP/TYPE lines
// introduce: quantile'd samples belong to their base name; _sum/_count
// belong to the summary family when one is declared.
func (p *parsedExposition) sampleFamily(name string) string {
	if _, ok := p.types[name]; ok {
		return name
	}
	for _, suffix := range [...]string{"_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if p.types[base] == "summary" || p.types[base] == "histogram" {
				return base
			}
		}
	}
	return name
}

// parseExposition validates line syntax and the HELP/TYPE-before-sample
// ordering, failing the test on the first malformed line.
func parseExposition(t *testing.T, r io.Reader) *parsedExposition {
	t.Helper()
	p := &parsedExposition{
		help:    map[string]string{},
		types:   map[string]string{},
		samples: map[string]float64{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d %q: %s", lineNo, line, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				fail("HELP without text")
			}
			if !metricNameRe.MatchString(name) {
				fail("bad family name %q", name)
			}
			if _, dup := p.help[name]; dup {
				fail("duplicate HELP for %q", name)
			}
			p.help[name] = help
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				fail("TYPE wants name and kind")
			}
			name, kind := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				fail("bad family name %q", name)
			}
			if !typeRe.MatchString(kind) {
				fail("bad type %q", kind)
			}
			if _, dup := p.types[name]; dup {
				fail("duplicate TYPE for %q", name)
			}
			if _, ok := p.help[name]; !ok {
				fail("TYPE before HELP for %q", name)
			}
			p.types[name] = kind
		case strings.HasPrefix(line, "#"):
			fail("unrecognized comment")
		default:
			// Sample: name[{labels}] value
			idx := strings.LastIndexByte(line, ' ')
			if idx < 0 {
				fail("sample without value")
			}
			nameAndLabels, valStr := line[:idx], line[idx+1:]
			val, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				fail("value %q: %v", valStr, err)
			}
			name := nameAndLabels
			if open := strings.IndexByte(nameAndLabels, '{'); open >= 0 {
				if !strings.HasSuffix(nameAndLabels, "}") {
					fail("unterminated label set")
				}
				name = nameAndLabels[:open]
				labels := nameAndLabels[open+1 : len(nameAndLabels)-1]
				for _, pair := range splitLabels(labels) {
					if !labelRe.MatchString(pair) {
						fail("bad label pair %q", pair)
					}
				}
			}
			if !metricNameRe.MatchString(name) {
				fail("bad sample name %q", name)
			}
			family := p.sampleFamily(name)
			if _, ok := p.types[family]; !ok {
				fail("sample before TYPE (family %q)", family)
			}
			if _, ok := p.help[family]; !ok {
				fail("sample before HELP (family %q)", family)
			}
			if _, dup := p.samples[nameAndLabels]; dup {
				fail("duplicate sample %q", nameAndLabels)
			}
			p.samples[nameAndLabels] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// splitLabels splits `a="b",c="d"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// fullRegistry builds a registry exercising every instrument kind plus
// the rollup and SLO exposition layers.
func fullRegistry(t *testing.T) (*Registry, *Rollup) {
	t.Helper()
	r := NewRegistry()
	r.Describe("server.compress.requests", "Requests admitted.")
	r.Counter("server.compress.requests").Add(7)
	r.Counter("undocumented.counter").Add(1) // exercises the fallback HELP
	r.Gauge("server.queue_depth").Set(3)
	r.Histogram("core.compress").Observe((1500 * time.Microsecond).Nanoseconds())
	r.Histogram("server.compress.latency_us").Observe(250)
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	NewSLOEngine(rp, []Objective{{
		Spec:     mustSpec(t, "compress:p99<1ms:99"),
		HistName: "server.compress.latency_us",
	}}, 0)
	r.Histogram("server.compress.latency_us").Observe(90)
	rp.Tick()
	return r, rp
}

func TestExpositionStrictlyWellFormed(t *testing.T) {
	r, _ := fullRegistry(t)
	srv := httptest.NewServer(r.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	p := parseExposition(t, resp.Body)

	// The layers all made it into one scrape.
	for _, family := range []string{
		"ceresz_build_info",
		"ceresz_server_compress_requests",
		"ceresz_undocumented_counter",
		"ceresz_runtime_goroutines",
		"ceresz_rollup_interval_seconds",
		"ceresz_server_compress_requests_rate",
		"ceresz_server_compress_latency_us_window",
		"ceresz_slo_burn_rate_5m",
	} {
		if _, ok := p.types[family]; !ok {
			t.Errorf("family %q missing from exposition", family)
		}
	}
	// Describe'd text rides through; undocumented instruments get the
	// generated fallback naming the original instrument.
	if got := p.help["ceresz_server_compress_requests"]; got != "Requests admitted." {
		t.Errorf("described help = %q", got)
	}
	if got := p.help["ceresz_undocumented_counter"]; !strings.Contains(got, "undocumented.counter") {
		t.Errorf("fallback help = %q", got)
	}
	// build_info carries identifying labels and the constant value 1.
	found := false
	for name, val := range p.samples {
		if strings.HasPrefix(name, "ceresz_build_info{") {
			found = true
			if val != 1 {
				t.Errorf("build_info = %g, want 1", val)
			}
			if !strings.Contains(name, `go_version="go`) || !strings.Contains(name, "revision=") {
				t.Errorf("build_info labels: %s", name)
			}
		}
	}
	if !found {
		t.Error("no ceresz_build_info sample")
	}
	if p.samples["ceresz_server_compress_requests"] != 7 {
		t.Errorf("counter sample = %g", p.samples["ceresz_server_compress_requests"])
	}
	// Runtime health gauges refresh on scrape.
	if p.samples["ceresz_runtime_goroutines"] <= 0 {
		t.Errorf("runtime goroutines = %g", p.samples["ceresz_runtime_goroutines"])
	}
	if p.samples["ceresz_runtime_heap_bytes"] <= 0 {
		t.Errorf("runtime heap bytes = %g", p.samples["ceresz_runtime_heap_bytes"])
	}
}

func TestCountersMonotoneUnderConcurrentScrape(t *testing.T) {
	r, rp := fullRegistry(t)
	srv := httptest.NewServer(r.MetricsHandler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("server.compress.requests")
			h := r.Histogram("server.compress.latency_us")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				h.Observe(int64(i%1000 + 1))
				if i%64 == 0 {
					rp.Tick()
				}
			}
		}(w)
	}

	prev := map[string]float64{}
	for scrape := 0; scrape < 20; scrape++ {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		p := parseExposition(t, resp.Body)
		resp.Body.Close()
		for name, val := range p.samples {
			family := p.sampleFamily(strings.SplitN(name, "{", 2)[0])
			// _window families carry per-window deltas — they fluctuate by
			// design; only cumulative counters and summary counts are
			// monotone.
			if strings.HasSuffix(family, "_window") {
				continue
			}
			isCount := strings.HasSuffix(name, "_count") &&
				(p.types[family] == "summary" || p.types[family] == "histogram")
			if p.types[name] != "counter" && !isCount {
				continue
			}
			if last, ok := prev[name]; ok && val < last {
				t.Fatalf("scrape %d: %s went backwards: %g -> %g", scrape, name, last, val)
			}
			prev[name] = val
		}
	}
	close(stop)
	wg.Wait()
}
