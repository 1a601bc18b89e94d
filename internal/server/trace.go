package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// Request-scoped observability: every admitted /v1/* request is attributed
// a W3C trace id (propagated via the `traceparent` header, generated when
// the client sent none) and a lifecycle span decomposed into stages —
// admission wait, worker-pool wait, then per-chunk body reads, codec
// kernels and response writes. The span lives in a preallocated slot (the
// admission semaphore bounds concurrency, so slots never run out and never
// allocate), its stage accumulators are atomics so /debug/requests can
// read in-flight requests without stalling the handler, and the per-chunk
// hooks only touch atomics and the slot's fixed arrays, so the codec path
// stays zero-alloc.
//
// Completed spans feed:
//
//   - a Server-Timing response trailer (admit/worker/read/codec/write/total
//     in milliseconds), so clients attribute latency without scraping;
//   - a recent ring + a slowest-N ring, exported as Chrome trace events
//     through the shared telemetry.ChromeTraceWriter (/debug/trace) — the
//     same machinery as the simulator's SpanLog, so server request spans
//     and WSE block spans open in the same Perfetto viewer;
//   - a structured JSON access log, one line per finished request;
//   - the /debug/requests JSON view (in-flight + slowest + totals).

// stage indexes one segment of a request's lifecycle.
type stage int32

const (
	// stageAdmit is accept → admission semaphore acquired (method/drain/
	// length checks plus the non-blocking semaphore acquisition).
	stageAdmit stage = iota
	// stageWorker is admission → codec (worker) acquired.
	stageWorker
	// stageRead is body-read time, accumulated per chunk (includes the
	// client's upload pacing — the stream is read incrementally).
	stageRead
	// stageCache is chunk-cache time, accumulated per chunk: key hashing
	// plus the lookup, including any wait coalesced onto another request's
	// in-flight computation. Zero when the cache is disabled.
	stageCache
	// stageCodec is compress/decompress kernel time, accumulated per chunk.
	stageCodec
	// stageWrite is response-write time, accumulated per chunk.
	stageWrite
	numStages
)

var stageNames = [numStages]string{"admit", "worker", "read", "cache", "codec", "write"}

// traceID is a W3C trace-context trace id (16 bytes, hex 32 on the wire).
type traceID [16]byte

// spanID is a W3C trace-context parent/span id (8 bytes, hex 16).
type spanID [8]byte

func (t traceID) String() string { return hex.EncodeToString(t[:]) }
func (s spanID) String() string  { return hex.EncodeToString(s[:]) }

func (t traceID) isZero() bool {
	for _, b := range t {
		if b != 0 {
			return false
		}
	}
	return true
}

func (s spanID) isZero() bool {
	for _, b := range s {
		if b != 0 {
			return false
		}
	}
	return true
}

// parseTraceparent extracts the trace id and parent span id from a W3C
// `traceparent` header: version-traceid-parentid-flags, all lower hex.
func parseTraceparent(h string) (traceID, spanID, bool) {
	var tid traceID
	var sid spanID
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(h[:2])); err != nil || ver[0] == 0xff {
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return tid, sid, false
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return tid, sid, false
	}
	if tid.isZero() || sid.isZero() {
		return tid, sid, false
	}
	return tid, sid, true
}

func newTraceID() traceID {
	var t traceID
	for t.isZero() {
		u, v := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(u >> (8 * i))
			t[8+i] = byte(v >> (8 * i))
		}
	}
	return t
}

func newSpanID() spanID {
	var s spanID
	u := rand.Uint64() | 1 // never all-zero
	for i := 0; i < 8; i++ {
		s[i] = byte(u >> (8 * i))
	}
	return s
}

// maxChunkEvents bounds the per-chunk events one sampled request records
// (3 per chunk: read, codec, write). Past the cap, events are dropped and
// counted — the stage sums stay exact either way.
const maxChunkEvents = 96

// chunkEvent is one per-chunk stage occurrence of a sampled request.
type chunkEvent struct {
	stage   stage
	startNs int64 // offset from the request's accept time
	durNs   int64
}

// spanInfo is what a request's span knows of it besides the live
// counters, and what its finished record keeps: the identity acquire
// writes under the span's mu, so /debug/requests can read it, and the
// finalize-only fields the owning handler goroutine writes.
type spanInfo struct {
	seq      uint64
	id       traceID
	endpoint uint8
	start    time.Time
	worker   int32
	// tenant is the request's X-Ceresz-Tenant identity ("" = untagged):
	// a label on the access-log line, /debug/requests and the span, so
	// each tenant's traffic can be told apart.
	tenant string

	totalNs int64
	errMsg  string
	nEvents int
	dropped int
	events  [maxChunkEvents]chunkEvent
}

// reqSpan is one request's lifecycle record, living in a preallocated
// tracer slot. busy and the identity are written under mu at
// acquire/release so /debug/requests can read them; the live counters are
// atomics updated lock-free by the handler; the chunk-event array is
// touched only by the owning handler goroutine.
type reqSpan struct {
	mu   sync.Mutex
	busy bool
	// parent is the client's span id from traceparent (zero if none).
	parent spanID
	// self is the server's span id for this request, echoed in the
	// response traceparent.
	self    spanID
	sampled bool
	spanInfo

	status   atomic.Int32
	curStage atomic.Int32
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	chunks   atomic.Int64
	// cacheHits / cacheMisses count the request's chunk-cache outcomes
	// (coalesced waits count as hits — the codec never ran here). Both
	// stay zero when the cache is disabled.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	stageNs     [numStages]atomic.Int64
}

// observe closes a stage segment opened at t0, accumulating its
// duration and — when the request is sampled — recording a chunk event.
// Zero-alloc: atomics plus a write into the slot's fixed array.
func (sp *reqSpan) observe(st stage, t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	sp.stageNs[st].Add(d)
	sp.curStage.Store(int32(st))
	if !sp.sampled {
		return
	}
	if sp.nEvents >= maxChunkEvents {
		sp.dropped++
		return
	}
	sp.events[sp.nEvents] = chunkEvent{stage: st, startNs: t0.Sub(sp.start).Nanoseconds(), durNs: d}
	sp.nEvents++
}

// serverTiming renders the span as a Server-Timing header value
// (durations in milliseconds, the header's unit).
func (sp *reqSpan) serverTiming(totalNs int64) string {
	var b []byte
	for st := stage(0); st < numStages; st++ {
		if st > 0 {
			b = append(b, ',', ' ')
		}
		b = append(b, stageNames[st]...)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, float64(sp.stageNs[st].Load())/1e6, 'f', 3, 64)
	}
	b = append(b, ", total;dur="...)
	b = strconv.AppendFloat(b, float64(totalNs)/1e6, 'f', 3, 64)
	return string(b)
}

// reqRecord is a finished span, copied by value into the rings.
type reqRecord struct {
	spanInfo
	status      int
	stageNs     [numStages]int64
	bytesIn     int64
	bytesOut    int64
	chunks      int64
	cacheHits   int64
	cacheMisses int64
}

func (rec *reqRecord) waitNs() int64 { return rec.stageNs[stageAdmit] + rec.stageNs[stageWorker] }

// Ring capacities: the most recent sampled requests, and the slowest
// finished requests whether sampled or not.
const (
	recentRing = 256
	slowRing   = 32
)

// tracer owns the request-span slots, the completed-request rings and the
// access log. Slots are preallocated to the admission bound, so acquiring
// one never blocks and never allocates.
type tracer struct {
	every    int // sample 1-in-every requests into the rings (0 = off)
	epoch    time.Time
	seq      atomic.Uint64
	finished atomic.Uint64
	sampled  atomic.Uint64
	dropped  atomic.Uint64 // chunk events dropped past maxChunkEvents

	slots []*reqSpan
	free  chan *reqSpan

	ringMu sync.Mutex
	recent []reqRecord // sampled requests, newest overwrites oldest
	next   int
	filled bool
	slow   []reqRecord // slowest-N over all finished requests
	nSlow  int

	logMu     sync.Mutex
	accessLog io.Writer
}

func newTracer(slots int, cfg Config) *tracer {
	t := &tracer{
		every:     cfg.TraceEvery,
		epoch:     time.Now(),
		slots:     make([]*reqSpan, slots),
		free:      make(chan *reqSpan, slots),
		recent:    make([]reqRecord, recentRing),
		slow:      make([]reqRecord, slowRing),
		accessLog: cfg.AccessLog,
	}
	for i := range t.slots {
		t.slots[i] = &reqSpan{}
		t.free <- t.slots[i]
	}
	return t
}

// ids resolves the request's trace identity: the client's traceparent
// when present and valid, fresh ids otherwise. self is the server-side
// span id echoed back.
func (t *tracer) ids(r *http.Request) (tid traceID, parent, self spanID) {
	if got, p, ok := parseTraceparent(r.Header.Get("traceparent")); ok {
		tid, parent = got, p
	} else {
		tid = newTraceID()
	}
	return tid, parent, newSpanID()
}

// acquire claims a slot for an admitted request. The admission semaphore
// bounds concurrent /v1 requests to len(slots), so the receive never
// blocks.
func (t *tracer) acquire(tid traceID, parent, self spanID, endpoint uint8, start time.Time, tenant string) *reqSpan {
	sp := <-t.free
	seq := t.seq.Add(1)
	sp.mu.Lock()
	sp.busy = true
	sp.parent = parent
	sp.self = self
	sp.sampled = t.every > 0 && seq%uint64(t.every) == 0
	sp.spanInfo = spanInfo{seq: seq, id: tid, endpoint: endpoint, start: start, worker: -1, tenant: tenant}
	sp.mu.Unlock()
	sp.status.Store(0)
	sp.curStage.Store(int32(stageAdmit))
	sp.bytesIn.Store(0)
	sp.bytesOut.Store(0)
	sp.chunks.Store(0)
	sp.cacheHits.Store(0)
	sp.cacheMisses.Store(0)
	for i := range sp.stageNs {
		sp.stageNs[i].Store(0)
	}
	return sp
}

// finish seals a span, publishes it to the rings and the access log, and
// frees its slot.
func (t *tracer) finish(sp *reqSpan) {
	sp.totalNs = time.Since(sp.start).Nanoseconds()
	t.finished.Add(1)
	if sp.dropped > 0 {
		t.dropped.Add(uint64(sp.dropped))
	}

	rec := reqRecord{
		spanInfo:    sp.spanInfo,
		status:      int(sp.status.Load()),
		bytesIn:     sp.bytesIn.Load(),
		bytesOut:    sp.bytesOut.Load(),
		chunks:      sp.chunks.Load(),
		cacheHits:   sp.cacheHits.Load(),
		cacheMisses: sp.cacheMisses.Load(),
	}
	for i := range rec.stageNs {
		rec.stageNs[i] = sp.stageNs[i].Load()
	}

	if sp.sampled {
		t.sampled.Add(1)
	}
	t.ringMu.Lock()
	if sp.sampled {
		t.recent[t.next] = rec
		t.next++
		if t.next == len(t.recent) {
			t.next = 0
			t.filled = true
		}
	}
	// Slowest-N over every finished request: replace the current minimum
	// when the new span is slower (linear scan; N is small).
	if t.nSlow < len(t.slow) {
		t.slow[t.nSlow] = rec
		t.nSlow++
	} else {
		minIdx := 0
		for i := 1; i < t.nSlow; i++ {
			if t.slow[i].totalNs < t.slow[minIdx].totalNs {
				minIdx = i
			}
		}
		if rec.totalNs > t.slow[minIdx].totalNs {
			t.slow[minIdx] = rec
		}
	}
	t.ringMu.Unlock()

	if t.accessLog != nil {
		t.logAccess(&rec)
	}

	sp.mu.Lock()
	sp.busy = false
	sp.mu.Unlock()
	t.free <- sp
}

func (t *tracer) logAccess(rec *reqRecord) {
	b, err := json.Marshal(recordToJSON(rec, true))
	if err != nil {
		return
	}
	b = append(b, '\n')
	t.logMu.Lock()
	_, _ = t.accessLog.Write(b)
	t.logMu.Unlock()
}

// snapshotRecords returns the recent and slowest rings merged (dedup by
// sequence number), sorted by start time.
func (t *tracer) snapshotRecords() []reqRecord {
	t.ringMu.Lock()
	n := t.next
	if t.filled {
		n = len(t.recent)
	}
	out := make([]reqRecord, 0, n+t.nSlow)
	seen := make(map[uint64]bool, n+t.nSlow)
	for i := 0; i < n; i++ {
		out = append(out, t.recent[i])
		seen[t.recent[i].seq] = true
	}
	for i := 0; i < t.nSlow; i++ {
		if !seen[t.slow[i].seq] {
			out = append(out, t.slow[i])
		}
	}
	t.ringMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// recordJSON is one finished request as an access-log line and as an
// entry of the /debug/requests view. Both carry its start time, the log
// line as ts and the view as start.
type recordJSON struct {
	Time        string `json:"ts,omitempty"`
	ID          string `json:"id"`
	Endpoint    string `json:"endpoint"`
	Status      int    `json:"status"`
	Worker      int32  `json:"worker"`
	Tenant      string `json:"tenant,omitempty"`
	Start       string `json:"start,omitempty"`
	TotalUS     int64  `json:"total_us"`
	AdmitUS     int64  `json:"admit_us"`
	WorkerUS    int64  `json:"worker_us"`
	ReadUS      int64  `json:"read_us"`
	CacheUS     int64  `json:"cache_us,omitempty"`
	CodecUS     int64  `json:"codec_us"`
	WriteUS     int64  `json:"write_us"`
	BytesIn     int64  `json:"bytes_in"`
	BytesOut    int64  `json:"bytes_out"`
	Chunks      int64  `json:"chunks"`
	CacheHits   int64  `json:"cache_hits,omitempty"`
	CacheMisses int64  `json:"cache_misses,omitempty"`
	Err         string `json:"err,omitempty"`
}

// recordToJSON renders rec as an access-log line (logLine) or a
// /debug/requests entry.
func recordToJSON(rec *reqRecord, logLine bool) recordJSON {
	start := rec.start.UTC().Format(time.RFC3339Nano)
	var ts string
	if logLine {
		ts, start = start, ""
	}
	return recordJSON{
		Time:        ts,
		ID:          rec.id.String(),
		Endpoint:    spine.Endpoints[rec.endpoint],
		Status:      rec.status,
		Worker:      rec.worker,
		Tenant:      rec.tenant,
		Start:       start,
		TotalUS:     rec.totalNs / 1e3,
		AdmitUS:     rec.stageNs[stageAdmit] / 1e3,
		WorkerUS:    rec.stageNs[stageWorker] / 1e3,
		ReadUS:      rec.stageNs[stageRead] / 1e3,
		CacheUS:     rec.stageNs[stageCache] / 1e3,
		CodecUS:     rec.stageNs[stageCodec] / 1e3,
		WriteUS:     rec.stageNs[stageWrite] / 1e3,
		BytesIn:     rec.bytesIn,
		BytesOut:    rec.bytesOut,
		Chunks:      rec.chunks,
		CacheHits:   rec.cacheHits,
		CacheMisses: rec.cacheMisses,
		Err:         rec.errMsg,
	}
}

// inflightJSON is one in-flight request in the /debug/requests view.
type inflightJSON struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Worker   int32  `json:"worker"`
	Tenant   string `json:"tenant,omitempty"`
	AgeUS    int64  `json:"age_us"`
	Stage    string `json:"stage"`
	BytesIn  int64  `json:"bytes_in"`
	BytesOut int64  `json:"bytes_out"`
	Chunks   int64  `json:"chunks"`
}

// requestsView is the /debug/requests response document.
type requestsView struct {
	Now           string         `json:"now"`
	Finished      uint64         `json:"finished"`
	Sampled       uint64         `json:"sampled"`
	DroppedEvents uint64         `json:"dropped_chunk_events"`
	InFlight      []inflightJSON `json:"in_flight"`
	Slowest       []recordJSON   `json:"slowest"`
}

// RequestsHandler serves the /debug/requests JSON view: requests in
// flight right now (id, stage, age, volume) and the slowest-N ring.
func (s *Server) RequestsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		t := s.tr
		now := time.Now()
		view := requestsView{
			Now:           now.UTC().Format(time.RFC3339Nano),
			Finished:      t.finished.Load(),
			Sampled:       t.sampled.Load(),
			DroppedEvents: t.dropped.Load(),
			InFlight:      []inflightJSON{},
			Slowest:       []recordJSON{},
		}
		for _, sp := range t.slots {
			sp.mu.Lock()
			if sp.busy {
				view.InFlight = append(view.InFlight, inflightJSON{
					ID:       sp.id.String(),
					Endpoint: spine.Endpoints[sp.endpoint],
					Worker:   sp.worker,
					Tenant:   sp.tenant,
					AgeUS:    now.Sub(sp.start).Microseconds(),
					Stage:    stageNames[stage(sp.curStage.Load())],
					BytesIn:  sp.bytesIn.Load(),
					BytesOut: sp.bytesOut.Load(),
					Chunks:   sp.chunks.Load(),
				})
			}
			sp.mu.Unlock()
		}
		t.ringMu.Lock()
		slow := make([]reqRecord, t.nSlow)
		copy(slow, t.slow[:t.nSlow])
		t.ringMu.Unlock()
		sort.Slice(slow, func(i, j int) bool { return slow[i].totalNs > slow[j].totalNs })
		for i := range slow {
			view.Slowest = append(view.Slowest, recordToJSON(&slow[i], false))
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}

// TraceHandler serves the sampled request spans as a Chrome trace-event
// JSON array (/debug/trace): one track per codec worker carrying the
// handler slice with nested per-chunk read/codec/write slices, pending
// lanes carrying the pre-worker wait, and a flow arrow linking each
// request's wait to its execution — load it in ui.perfetto.dev next to a
// simulator span trace.
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.tr.writeChromeTrace(w, s.cfg.Workers)
	})
}

// pendingLaneBase offsets the wait-slice tracks away from worker tracks.
const pendingLaneBase = 1000

// writeChromeTrace renders the merged rings as Chrome trace events.
// Timestamps are microseconds since the tracer epoch (server start).
func (t *tracer) writeChromeTrace(w io.Writer, workers int) error {
	recs := t.snapshotRecords()
	tw := telemetry.NewChromeTraceWriter(w)
	for i := 0; i < workers; i++ {
		tw.Emit(telemetry.ThreadName(0, i, fmt.Sprintf("worker %d", i)))
	}

	// Assign each request's pre-worker wait interval to the first free
	// pending lane (records are sorted by start, so a greedy sweep packs
	// overlapping waits onto distinct lanes).
	var laneFree []int64 // per lane: when its current wait ends (µs)
	lane := func(startUS, endUS int64) int {
		for i, free := range laneFree {
			if free <= startUS {
				laneFree[i] = endUS
				return i
			}
		}
		laneFree = append(laneFree, endUS)
		l := len(laneFree) - 1
		tw.Emit(telemetry.ThreadName(0, pendingLaneBase+l, fmt.Sprintf("pending %d", l)))
		return l
	}

	for i := range recs {
		rec := &recs[i]
		startUS := rec.start.Sub(t.epoch).Microseconds()
		waitUS := rec.waitNs() / 1e3
		totalUS := max(rec.totalNs/1e3, 1)
		handleUS := max(totalUS-waitUS, 1)
		tid := max(int(rec.worker), 0)
		flowID := strconv.FormatUint(rec.seq, 10)
		ep := spine.Endpoints[rec.endpoint]

		waitLane := lane(startUS, startUS+waitUS)
		tw.Emit(telemetry.ChromeEvent{
			Name: "wait", Cat: ep, Ph: "X",
			Ts: startUS, Dur: max(waitUS, 1), Pid: 0, Tid: pendingLaneBase + waitLane,
			Cname: "yellow",
			Args: map[string]any{
				"id": rec.id.String(), "admit_us": rec.stageNs[stageAdmit] / 1e3,
				"worker_us": rec.stageNs[stageWorker] / 1e3,
			},
		})
		tw.Emit(telemetry.ChromeEvent{Name: "request", Cat: ep, Ph: "s",
			Ts: startUS, Pid: 0, Tid: pendingLaneBase + waitLane, ID: flowID})

		handleArgs := map[string]any{
			"id": rec.id.String(), "status": rec.status,
			"bytes_in": rec.bytesIn, "bytes_out": rec.bytesOut, "chunks": rec.chunks,
			"read_us":  rec.stageNs[stageRead] / 1e3,
			"codec_us": rec.stageNs[stageCodec] / 1e3,
			"write_us": rec.stageNs[stageWrite] / 1e3,
		}
		if rec.cacheHits > 0 || rec.cacheMisses > 0 {
			handleArgs["cache_us"] = rec.stageNs[stageCache] / 1e3
			handleArgs["cache_hits"] = rec.cacheHits
			handleArgs["cache_misses"] = rec.cacheMisses
		}
		if rec.tenant != "" {
			handleArgs["tenant"] = rec.tenant
		}
		if rec.dropped > 0 {
			handleArgs["dropped_chunk_events"] = rec.dropped
		}
		if rec.errMsg != "" {
			handleArgs["err"] = rec.errMsg
		}
		tw.Emit(telemetry.ChromeEvent{
			Name: ep, Cat: ep, Ph: "X",
			Ts: startUS + waitUS, Dur: handleUS, Pid: 0, Tid: tid,
			Cname: "good", Args: handleArgs,
		})
		tw.Emit(telemetry.ChromeEvent{Name: "request", Cat: ep, Ph: "f", BP: "e",
			Ts: startUS + waitUS, Pid: 0, Tid: tid, ID: flowID})

		for _, ev := range rec.events[:rec.nEvents] {
			tw.Emit(telemetry.ChromeEvent{
				Name: stageNames[ev.stage], Cat: "chunk", Ph: "X",
				Ts: startUS + ev.startNs/1e3, Dur: max(ev.durNs/1e3, 1),
				Pid: 0, Tid: tid,
			})
		}
	}
	return tw.Close()
}
