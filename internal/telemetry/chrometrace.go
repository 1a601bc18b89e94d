package telemetry

import (
	"encoding/json"
	"io"
)

// Chrome trace-event export, shared by every span producer in the repo.
// The simulator's SpanLog (internal/wse) and the serving path's request
// spans (internal/server) both render through this writer, so a
// simulator run and a cereszd capture open in the same viewer
// (ui.perfetto.dev or chrome://tracing) with the same conventions:
// complete slices use ph "X", per-track metadata ph "M", and flow arrows
// ph "s"/"t"/"f" bound by ID.

// ChromeEvent is one entry of the Chrome trace-event JSON array format.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"` // flow-event binding id (ph "s"/"t"/"f")
	BP    string         `json:"bp,omitempty"` // flow binding point ("e" on the finish event)
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ThreadName returns the ph "M" metadata event naming track tid.
func ThreadName(pid, tid int, name string) ChromeEvent {
	return ChromeEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// ChromeTraceWriter streams a Chrome trace-event JSON array. Create with
// NewChromeTraceWriter, Emit events, then Close to terminate the array.
// Write errors are folded: Emit becomes a no-op after the first failure
// and Close reports it, so call sites stay linear.
type ChromeTraceWriter struct {
	w     io.Writer
	err   error
	first bool
}

// NewChromeTraceWriter opens the JSON array on w.
func NewChromeTraceWriter(w io.Writer) *ChromeTraceWriter {
	tw := &ChromeTraceWriter{w: w, first: true}
	tw.writeString("[\n")
	return tw
}

// Emit appends one event to the array.
func (tw *ChromeTraceWriter) Emit(ev ChromeEvent) {
	if tw.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		tw.err = err
		return
	}
	if !tw.first {
		tw.writeString(",\n")
	}
	tw.first = false
	tw.write(b)
}

// Close terminates the array and returns the first error encountered.
func (tw *ChromeTraceWriter) Close() error {
	tw.writeString("\n]\n")
	return tw.err
}

func (tw *ChromeTraceWriter) write(b []byte) {
	if tw.err != nil {
		return
	}
	_, tw.err = tw.w.Write(b)
}

func (tw *ChromeTraceWriter) writeString(s string) { tw.write([]byte(s)) }
