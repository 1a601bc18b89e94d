// Package wse simulates the Cerebras CS-2 wafer-scale engine at the level
// the paper reasons about (§2.1): a 2D mesh of processing elements, each
// with a private local memory (48 KB), its own program counter, and a
// fabric router that exchanges 32-bit wavelets with the four neighbors in
// one clock cycle. Programs are event-driven — a task runs only when its
// input data has arrived — mirroring the CSL data-triggering mechanism
// (paper Fig. 4).
//
// The simulator is deliberately faithful to the constraints that shaped
// CereSZ's design rather than to the PE micro-architecture:
//
//   - no global memory and no shared state: a PE can only touch its own
//     memory and messages from adjacent PEs;
//   - long-distance data movement must be relayed hop by hop by the PEs on
//     the path (paper §4.3 and Fig. 9);
//   - the processor is serial: relay work and compute work on the same PE
//     add up (the accounting behind Formulas (2) and (3));
//   - per-PE cycle counters measure runtime exactly as the paper's
//     "hardware cycle counters at each PE" (§5.1.1); wall time is
//     cycles / 850 MHz.
//
// Computation costs are supplied by the caller (internal/stages carries the
// calibrated per-sub-stage costs); the simulator charges communication
// costs itself from the message's wavelet count.
package wse

import "fmt"

// Dir is one of the five cardinal dataflow directions of a PE (§2.1):
// the four mesh neighbors plus the RAMP link to the local processor.
type Dir int

// Directions.
const (
	North Dir = iota
	East
	South
	West
	Ramp
)

func (d Dir) String() string {
	switch d {
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	case Ramp:
		return "ramp"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// Opposite returns the direction a message sent toward d arrives from.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Ramp
	}
}

// Color is a logical routing channel. The CS-2 fabric provides 24 colors
// (paper §2.1); the simulator enforces the same limit.
type Color uint8

// NumColors is the number of fabric colors available on the CS-2.
const NumColors = 24

// Valid reports whether the color is one of the 24 available channels.
func (c Color) Valid() bool { return c < NumColors }

// Coord addresses a PE on the mesh.
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Message is a unit of fabric communication: a typed payload plus the
// number of 32-bit wavelets it occupies on a link. Transferring a message
// across one hop costs LinkLatency + Wavelets cycles of link time.
type Message struct {
	// Color is the logical channel the message travels on.
	Color Color
	// Payload is the data carried; the simulator never inspects it.
	Payload any
	// Wavelets is the message size in 32-bit words (≥ 1).
	Wavelets int
	// From is the direction the message arrived from, filled in on
	// delivery. Host-injected messages (Injector.Inject) arrive from West,
	// the wafer edge the host feeds.
	From Dir
	// Src is the coordinate of the sending PE; host-injected messages
	// carry the OffWafer sentinel instead.
	Src Coord
	// Span tags the message with a block-lifecycle span id for tracing
	// (Mesh.AttachSpans); 0 means untracked. Messages a handler sends
	// while processing a tagged message inherit its span automatically,
	// so a block's id follows it across relays, stage hand-offs and
	// router hops.
	Span int64

	// sentAt is the cycle at which the producer handed the message to
	// the fabric: the sending handler's end time, or the injection time
	// for host messages. Router pass-through hops preserve it, so at the
	// final receiver it still marks when the original producer let go —
	// the boundary between queue-wait and fabric-stall attribution.
	sentAt int64
	// arrivedAt is the delivery cycle at the destination PE, stamped when
	// the message enters the mailbox; dispatch − arrivedAt is the
	// message's mailbox residency (Stats.MailboxWaitCycles).
	arrivedAt int64
}

// OffWafer is the sentinel source coordinate stamped on host-injected
// messages (Injector.Inject). No PE owns it, so a program can distinguish
// host ingress from fabric traffic by comparing Message.Src against it.
var OffWafer = Coord{Row: -1, Col: -1}

// Emission is a payload the program handed off the wafer (compressed
// output, in CereSZ's case), with its completion timestamp.
type Emission struct {
	From    Coord
	At      int64
	Payload any
}

// Stats aggregates a PE's cycle accounting.
type Stats struct {
	// ComputeCycles is time spent in Spend (sub-stage execution).
	ComputeCycles int64
	// RelayCycles is time spent forwarding fabric data through the PE
	// (the Fig. 9 relay task).
	RelayCycles int64
	// SendCycles is time spent moving local memory onto the fabric.
	SendCycles int64
	// QueueWaitCycles is processor-idle time spent waiting for the next
	// dispatched message's producer: the upstream handler (or the host
	// feed) had not yet handed the message to the fabric. It is the
	// backpressure signal — a PE starved by a slow upstream stage group
	// accumulates it.
	QueueWaitCycles int64
	// FabricStallCycles is processor-idle time during which the next
	// dispatched message was already on the fabric: link latency, wavelet
	// streaming and link-serialization delays (the Formula (2) transfer
	// terms seen from the receiver).
	FabricStallCycles int64
	// MailboxWaitCycles sums, over dispatched messages, the cycles each
	// spent queued in this PE's mailbox between delivery and
	// dispatch. It overlaps the PE's busy window (messages queue only
	// while the processor is running), so it is reported alongside — not
	// inside — the timeline buckets.
	MailboxWaitCycles int64
	// Handled counts dispatched messages.
	Handled int64
	// Forwarded counts processor relay hops, Context.Forward calls and
	// relay-task relays (Context.Relay) alike: the divisor that turns
	// RelayCycles into a measured per-hop relay cost for the Formula (2)
	// cross-check.
	Forwarded int64
	// Routed counts messages the fabric router forwarded without the
	// processor (SetRoute pass-through).
	Routed int64
	// LastActive is the cycle at which the PE last finished work.
	LastActive int64
	// MemPeak is the high-water mark of allocated local memory in bytes.
	MemPeak int
}

// BusyCycles is the total occupied processor time.
func (s Stats) BusyCycles() int64 {
	return s.ComputeCycles + s.RelayCycles + s.SendCycles
}
