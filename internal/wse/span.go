package wse

import (
	"fmt"
	"sort"
)

// Block-lifecycle span tracing.
//
// A span follows one unit of work (a CereSZ block) across the wafer:
// host injection, every router hop, every handler that touched it, and
// the final wafer egress. Span events are keyed to their cause event's
// deterministic (at, src, seq) ordering key, and a run merges its rows'
// events in that order, so the log is bit-identical for any
// Config.Workers.

// SpanKind classifies one span event.
type SpanKind uint8

// Span event kinds, in lifecycle order.
const (
	// SpanInject is the host delivery onto the wafer (Injector.Inject).
	SpanInject SpanKind = iota
	// SpanRoute is a router pass-through hop (SetRoute, no processor).
	SpanRoute
	// SpanDispatch is a processor dispatch for the span: a program handler
	// invocation, named by the program via Context.LabelSpan, or a hop of
	// the PE's relay task (Context.Relay), named "relay".
	SpanDispatch
	// SpanEject is the wafer egress (Context.Emit).
	SpanEject
)

func (k SpanKind) String() string {
	switch k {
	case SpanInject:
		return "inject"
	case SpanRoute:
		return "route"
	case SpanDispatch:
		return "dispatch"
	case SpanEject:
		return "eject"
	default:
		return fmt.Sprintf("SpanKind(%d)", uint8(k))
	}
}

// SpanEvent is one recorded point of a span's lifecycle, with cycle
// timestamps taken from the simulated clock.
type SpanEvent struct {
	// Span is the block's span id (Message.Span).
	Span int64 `json:"span"`
	// Kind classifies the event.
	Kind SpanKind `json:"kind"`
	// PE is where it happened.
	PE Coord `json:"pe"`
	// At is the event's start cycle: dispatch start, route processing
	// time, injection delivery, or emission completion.
	At int64 `json:"at"`
	// End is the dispatch handler's end cycle, or the hop's arrival cycle
	// for routes; equal to At for inject and eject events.
	End int64 `json:"end"`
	// Sent is the cycle the dispatched/routed message was handed to the
	// fabric by its producer (dispatch and route events).
	Sent int64 `json:"sent,omitempty"`
	// Arrived is the delivery cycle at this PE (dispatch events); At −
	// Arrived is the message's mailbox wait.
	Arrived int64 `json:"arrived,omitempty"`
	// Label is the program's name for the handler's work (dispatch
	// events; Context.LabelSpan), e.g. "group02". A relay-task dispatch
	// (Context.Relay) carries "relay".
	Label string `json:"label,omitempty"`
	// Wavelets is the triggering message's fabric size.
	Wavelets int `json:"wavelets,omitempty"`
}

// SpanLog collects span events for one run. Attach with Mesh.AttachSpans
// before Run; read Events (or BlockSpans) afterwards.
type SpanLog struct {
	events []SpanEvent
}

// AttachSpans installs a span log. Must be called before Run. Only
// messages carrying a non-zero Message.Span are recorded, so the caller
// chooses which traffic to follow. Span recording does not change the
// simulated schedule, and the recorded sequence is bit-identical across
// worker counts.
func (m *Mesh) AttachSpans() *SpanLog {
	if m.ran {
		panic("wse: AttachSpans after Run")
	}
	m.spans = &SpanLog{}
	return m.spans
}

// Events returns every recorded span event in the (at, src, seq) order of
// the events that caused them.
func (sl *SpanLog) Events() []SpanEvent { return sl.events }

// BlockSpan is one block's assembled lifecycle: its events in timeline
// order plus the derived cycle decomposition.
type BlockSpan struct {
	// Span is the block's span id.
	Span int64 `json:"span"`
	// InjectAt is the host-delivery cycle (-1 if the span never recorded
	// an injection — e.g. spans started by Init-phase sends).
	InjectAt int64 `json:"inject_at"`
	// EjectAt is the wafer-egress cycle (-1 if the block never ejected).
	EjectAt int64 `json:"eject_at"`
	// Hops counts processor dispatches the block triggered.
	Hops int `json:"hops"`
	// RouteHops counts router pass-through hops.
	RouteHops int `json:"route_hops"`
	// WorkCycles sums the dispatch handler windows (relay + stage work).
	WorkCycles int64 `json:"work_cycles"`
	// QueueWaitCycles sums, per dispatch, the receiver-idle time before
	// the producer had sent the message (waiting on upstream).
	QueueWaitCycles int64 `json:"queue_wait_cycles"`
	// FabricCycles sums, per dispatch, the time between the producer's
	// hand-off and delivery (link latency, streaming, serialization).
	FabricCycles int64 `json:"fabric_cycles"`
	// MailboxCycles sums, per dispatch, delivery-to-dispatch mailbox
	// residency (the receiver was busy with earlier work).
	MailboxCycles int64 `json:"mailbox_cycles"`
	// Events is the block's full event list in timeline order.
	Events []SpanEvent `json:"events"`
}

// Latency is eject − inject, or 0 when either end is missing.
func (b BlockSpan) Latency() int64 {
	if b.InjectAt < 0 || b.EjectAt < 0 {
		return 0
	}
	return b.EjectAt - b.InjectAt
}

// BlockSpans groups the log's events by span id and derives each block's
// lifecycle decomposition. Blocks are returned in ascending span order;
// within a block, events keep timeline order (merged order on ties), so
// the result is bit-identical across worker counts.
func (sl *SpanLog) BlockSpans() []BlockSpan {
	byID := map[int64]*BlockSpan{}
	var order []int64
	for _, ev := range sl.events {
		b, ok := byID[ev.Span]
		if !ok {
			b = &BlockSpan{Span: ev.Span, InjectAt: -1, EjectAt: -1}
			byID[ev.Span] = b
			order = append(order, ev.Span)
		}
		b.Events = append(b.Events, ev)
		switch ev.Kind {
		case SpanInject:
			if b.InjectAt < 0 {
				b.InjectAt = ev.At
			}
		case SpanRoute:
			b.RouteHops++
		case SpanDispatch:
			b.Hops++
			b.WorkCycles += ev.End - ev.At
			b.MailboxCycles += ev.At - ev.Arrived
			if ev.Arrived > ev.Sent {
				b.FabricCycles += ev.Arrived - ev.Sent
			}
		case SpanEject:
			b.EjectAt = ev.At
		}
	}
	// Per-dispatch queue-wait needs the previous event's end on the same
	// span; compute after events are grouped and time-sorted.
	out := make([]BlockSpan, 0, len(order))
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, id := range order {
		b := byID[id]
		sort.SliceStable(b.Events, func(i, j int) bool { return b.Events[i].At < b.Events[j].At })
		prevEnd := b.InjectAt
		for _, ev := range b.Events {
			if ev.Kind == SpanDispatch {
				if prevEnd >= 0 && ev.Sent > prevEnd {
					b.QueueWaitCycles += ev.Sent - prevEnd
				}
			}
			if ev.End > prevEnd {
				prevEnd = ev.End
			}
		}
		out = append(out, *b)
	}
	return out
}
