package spine

import (
	"testing"
	"time"
)

// TestParseObjectives pins the objective binding on both tiers' prefixes:
// latency SLIs to the endpoint's latency histogram, error SLIs to its
// requests / status_5xx pair, unknown subjects refused, an empty list empty.
func TestParseObjectives(t *testing.T) {
	for _, prefix := range []string{"server", "proxy"} {
		for _, tc := range []struct {
			spec                   string
			hist, total, bad, fail string
		}{
			{spec: "compress:p99<25ms:99.9", hist: prefix + ".compress.latency_us"},
			{spec: "bundle:p50<1s:90", hist: prefix + ".bundle.latency_us"},
			{spec: "decompress:err:99.99", total: prefix + ".decompress.requests", bad: prefix + ".decompress.status_5xx"},
			{spec: "uploads:err:99", fail: "unknown endpoint"},
			{spec: "frobnicate:p99<1ms:99", fail: "unknown endpoint"},
		} {
			objs, err := ParseObjectives(prefix, tc.spec)
			if tc.fail != "" {
				if err == nil {
					t.Errorf("%s %q: accepted, want %s", prefix, tc.spec, tc.fail)
				}
				continue
			}
			if err != nil || len(objs) != 1 {
				t.Fatalf("%s %q: %d objectives, err %v", prefix, tc.spec, len(objs), err)
			}
			o := objs[0]
			if o.HistName != tc.hist || o.TotalCounter != tc.total || o.BadCounter != tc.bad {
				t.Errorf("%s %q: bound to hist %q total %q bad %q", prefix, tc.spec, o.HistName, o.TotalCounter, o.BadCounter)
			}
		}
		objs, err := ParseObjectives(prefix, "compress:p99<25ms:99.9,decompress:err:99.99")
		if err != nil || len(objs) != 2 || objs[1].BadCounter != prefix+".decompress.status_5xx" {
			t.Errorf("%s: two-spec list parsed to %+v, %v", prefix, objs, err)
		}
		if objs, err := ParseObjectives(prefix, ""); err != nil || len(objs) != 0 {
			t.Errorf("%s: empty spec list parsed to %v, %v", prefix, objs, err)
		}
	}
}

func TestRetryAfter(t *testing.T) {
	for d, want := range map[time.Duration]string{
		0:                       "1",
		time.Millisecond:        "1",
		time.Second:             "1",
		1500 * time.Millisecond: "2",
		7 * time.Second:         "7",
	} {
		if got := retryAfter(d); got != want {
			t.Errorf("retryAfter(%v) = %q, want %q", d, got, want)
		}
	}
}
