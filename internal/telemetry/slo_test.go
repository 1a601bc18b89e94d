package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseSLOSpec(t *testing.T) {
	spec, err := ParseSLOSpec("compress:p99<25ms:99.9")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Subject != "compress" || spec.SLI != "p99" ||
		spec.Threshold != 25*time.Millisecond ||
		spec.Target < 0.999-1e-9 || spec.Target > 0.999+1e-9 {
		t.Fatalf("parsed %+v", spec)
	}

	spec, err = ParseSLOSpec("decompress:err:99.99")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Subject != "decompress" || spec.SLI != "err" || spec.Threshold != 0 ||
		spec.Target < 0.9999-1e-9 || spec.Target > 0.9999+1e-9 {
		t.Fatalf("parsed %+v", spec)
	}

	for _, bad := range []string{
		"",                       // empty
		"compress",               // no sli/target
		"compress:p99<25ms",      // no target
		":p99<25ms:99.9",         // empty subject
		"compress:p99:99.9",      // latency sli without threshold
		"compress:p<25ms:99.9",   // empty quantile
		"compress:pXX<25ms:99.9", // non-numeric quantile
		"compress:p99<0s:99.9",   // non-positive threshold
		"compress:p99<zzz:99.9",  // unparsable duration
		"compress:latency:99.9",  // unknown sli
		"compress:err:0",         // target floor
		"compress:err:100",       // target ceiling
		"compress:err:nope",      // non-numeric target
		"compress:p99<25ms:99:9", // too many fields
		"x:err:NaN",              // NaN target
		"x:err:-Inf",             // infinite target
		"x:err:1e-400",           // target that divides to 0
		"x:pNaN<1s:99",           // NaN quantile
		"x:p-3<1s:99",            // negative quantile
		"x:pInf<1s:99",           // infinite quantile
		"x:p250<1s:99",           // quantile past 100
		"x:p0<1s:99",             // zero quantile
	} {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Errorf("ParseSLOSpec(%q) accepted, want error", bad)
		}
	}
}

// FuzzParseSLOSpec holds every spec ParseSLOSpec accepts to the ranges
// the SLO evaluation relies on: a target fraction in (0,1), a finite
// percentile in (0,100], and a positive threshold exactly for latency
// SLIs.
func FuzzParseSLOSpec(f *testing.F) {
	for _, seed := range []string{
		"compress:p99<25ms:99.9", "decompress:err:99.99", "x:err:NaN", "x:pNaN<1s:99",
		"x:p-3<1s:99", "x:pInf<1s:99", "x:p250<1s:99", "x:p100<1ns:1e-300", "x:p0x1p-2<1h:50",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		spec, err := ParseSLOSpec(raw)
		if err != nil {
			return
		}
		if !(spec.Target > 0 && spec.Target < 1) {
			t.Fatalf("%q: target %v outside (0,1)", raw, spec.Target)
		}
		latency := spec.SLI != "err"
		if latency {
			q, err := strconv.ParseFloat(strings.TrimPrefix(spec.SLI, "p"), 64)
			if err != nil || math.IsInf(q, 0) || !(q > 0 && q <= 100) {
				t.Fatalf("%q: quantile %q not a finite percentile in (0,100]", raw, spec.SLI)
			}
		}
		if (spec.Threshold > 0) != latency {
			t.Fatalf("%q: threshold %v for SLI %q", raw, spec.Threshold, spec.SLI)
		}
	})
}

func TestParseSLOSpecs(t *testing.T) {
	specs, err := ParseSLOSpecs(" compress:p99<25ms:99.9 , decompress:err:99 ,, ")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Subject != "compress" || specs[1].SLI != "err" {
		t.Fatalf("parsed %+v", specs)
	}
	if specs, err := ParseSLOSpecs(""); err != nil || len(specs) != 0 {
		t.Fatalf("empty spec list: %v %v", specs, err)
	}
	if _, err := ParseSLOSpecs("compress:p99<25ms:99.9,garbage"); err == nil {
		t.Fatal("bad list member accepted")
	}
}

func TestHistCountAtOrBelow(t *testing.T) {
	// Bucket upper 0 holds zeros; bucket upper 15 holds [8,15].
	buckets := map[int64]int64{0: 5, 15: 8}
	if got := histCountAtOrBelow(buckets, 0); got != 5 {
		t.Fatalf("<=0: %d, want 5", got)
	}
	if got := histCountAtOrBelow(buckets, 15); got != 13 {
		t.Fatalf("<=15: %d, want 13", got)
	}
	if got := histCountAtOrBelow(buckets, 7); got != 5 {
		t.Fatalf("<=7: %d, want 5 (below the [8,15] bucket)", got)
	}
	// Interpolation inside [8,15]: x=11 covers 4 of the 8 values.
	if got := histCountAtOrBelow(buckets, 11); got != 9 {
		t.Fatalf("<=11: %d, want 9", got)
	}
}

// sloFixture builds a registry + manually-ticked rollup with one latency
// histogram and a requests/5xx counter pair.
func sloFixture(t *testing.T) (*Registry, *Rollup, *SLOEngine) {
	t.Helper()
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	objs := []Objective{
		{
			Spec:     mustSpec(t, "compress:p99<1ms:99"),
			HistName: "ep.latency_us",
		},
		{
			Spec:         mustSpec(t, "compress:err:99"),
			TotalCounter: "ep.requests",
			BadCounter:   "ep.status_5xx",
		},
	}
	e := NewSLOEngine(rp, objs, 0)
	return r, rp, e
}

func mustSpec(t *testing.T, raw string) SLOSpec {
	t.Helper()
	spec, err := ParseSLOSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSLOEvaluateHealthy(t *testing.T) {
	r, rp, e := sloFixture(t)
	for i := 0; i < 100; i++ {
		r.Histogram("ep.latency_us").Observe(100) // 100µs << 1ms
	}
	r.Counter("ep.requests").Add(100)
	rp.Tick()

	statuses := e.Evaluate()
	if len(statuses) != 2 {
		t.Fatalf("%d statuses", len(statuses))
	}
	for _, st := range statuses {
		if st.Compliance < 0.99 || st.Degraded || st.BurnRate5m > 1 {
			t.Fatalf("healthy objective reports %+v", st)
		}
		if st.BudgetRemaining < 0 {
			t.Fatalf("budget overspent while healthy: %+v", st)
		}
	}
	if _, degraded := e.Degraded(); degraded {
		t.Fatal("engine degraded while healthy")
	}
}

func TestSLOEvaluateBurning(t *testing.T) {
	r, rp, e := sloFixture(t)
	// Every request violates the 1ms threshold, and every request 5xxes:
	// bad fraction 1.0, budget 1%, burn = 100.
	for i := 0; i < 100; i++ {
		r.Histogram("ep.latency_us").Observe(50_000) // 50ms
	}
	r.Counter("ep.requests").Add(100)
	r.Counter("ep.status_5xx").Add(100)
	rp.Tick()

	statuses, degraded := e.Degraded()
	if !degraded {
		t.Fatal("engine not degraded under total burn")
	}
	for _, st := range statuses {
		if st.BurnRate5m < 50 {
			t.Fatalf("burn rate %g, want ~100: %+v", st.BurnRate5m, st)
		}
		if !st.Degraded {
			t.Fatalf("objective not degraded: %+v", st)
		}
		if st.BudgetRemaining >= 0 {
			t.Fatalf("budget not overspent: %+v", st)
		}
	}
}

func TestBurnRateMath(t *testing.T) {
	// 1% bad with a 1% budget burns at exactly 1.
	if br := burnRate(99, 100, 0.01); br < 0.999 || br > 1.001 {
		t.Fatalf("burnRate(99,100,1%%) = %g, want 1", br)
	}
	if br := burnRate(0, 0, 0.01); br != 0 {
		t.Fatalf("no traffic burn = %g, want 0", br)
	}
	if br := burnRate(100, 100, 0.01); br != 0 {
		t.Fatalf("perfect burn = %g, want 0", br)
	}
}

func TestSLOHandlerAndOpenMetrics(t *testing.T) {
	r, rp, e := sloFixture(t)
	r.Histogram("ep.latency_us").Observe(50_000)
	for i := 0; i < 9; i++ {
		r.Histogram("ep.latency_us").Observe(10)
	}
	r.Counter("ep.requests").Add(10)
	rp.Tick()

	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		DegradedBurn float64     `json:"degraded_burn_threshold"`
		Degraded     bool        `json:"degraded"`
		Objectives   []SLOStatus `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.DegradedBurn != DefaultDegradedBurn || len(view.Objectives) != 2 {
		t.Fatalf("view %+v", view)
	}

	var sb strings.Builder
	if _, err := e.writeOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE ceresz_slo_compliance gauge",
		`ceresz_slo_burn_rate_5m{slo="compress:p99<1ms:99"}`,
		`ceresz_slo_degraded{slo="compress:err:99"} 0`,
		"ceresz_slo_budget_remaining",
		"ceresz_slo_burn_rate_1h",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("slo exposition missing %q\n%s", want, body)
		}
	}
}
