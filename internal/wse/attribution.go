package wse

// Cycle attribution.
//
// Stats counts what a PE *did*; Attribution additionally explains the
// cycles it did nothing, by splitting each PE's timeline [0, Elapsed]
// into disjoint buckets:
//
//	Compute      — Spend charges (sub-stage execution)
//	RelayForward — Forward + Send + Emit charges (fabric movement)
//	QueueWait    — idle, next message's producer had not yet sent it
//	FabricStall  — idle, next message already in flight on the fabric
//	Idle         — the residual: no pending work (ramp-up before the
//	               first delivery, drain-out after the last)
//
// The buckets sum to Elapsed exactly by construction. MailboxWait is the
// odd one out: messages queue in the mailbox only while the processor is
// busy, so it overlaps the busy buckets and is reported alongside them,
// never added in. All values derive from the simulated clock, so they
// are bit-identical across Config.Workers counts.

// PEAttribution is one PE's timeline decomposition, in cycles.
type PEAttribution struct {
	PE Coord `json:"pe"`
	// Compute is processor time in Spend (stage work).
	Compute int64 `json:"compute"`
	// RelayForward is processor time moving data: Forward relays, Send
	// ramp transfers, and Emit egress.
	RelayForward int64 `json:"relay_forward"`
	// QueueWait is idle time attributable to upstream backpressure.
	QueueWait int64 `json:"queue_wait"`
	// FabricStall is idle time attributable to fabric transfer latency.
	FabricStall int64 `json:"fabric_stall"`
	// Idle is the residual idle time (ramp-up and drain-out).
	Idle int64 `json:"idle"`
	// MailboxWait is total message residency in this PE's mailbox; it
	// overlaps the busy buckets and is excluded from the timeline sum.
	MailboxWait int64 `json:"mailbox_wait"`
	// Handled, Forwarded and Routed mirror Stats for context.
	Handled   int64 `json:"handled"`
	Forwarded int64 `json:"forwarded"`
	Routed    int64 `json:"routed"`
}

// Busy is the occupied-processor portion of the timeline.
func (a PEAttribution) Busy() int64 { return a.Compute + a.RelayForward }

// Attribution is the mesh-wide cycle decomposition of one run.
type Attribution struct {
	// Elapsed is the run length in cycles; every PE's buckets sum to it.
	Elapsed int64 `json:"elapsed"`
	// ActivePEs is the number of PEs listed (those that did any work);
	// MeshPEs is the full mesh size.
	ActivePEs int `json:"active_pes"`
	MeshPEs   int `json:"mesh_pes"`
	// PEs holds the per-PE decompositions, row-major, active PEs only.
	PEs []PEAttribution `json:"pes"`
	// Totals sums the buckets over the active PEs (Totals.PE is zero).
	Totals PEAttribution `json:"totals"`
}

// Attribution decomposes the last Run's per-PE timelines. Only PEs that
// did any work (dispatched, routed, or accumulated wait) are listed —
// an untouched PE is trivially all-Idle.
func (m *Mesh) Attribution() Attribution {
	active := 0
	for i := range m.pes {
		if m.pes[i].stats.active() {
			active++
		}
	}
	elapsed := m.Elapsed()
	att := Attribution{Elapsed: elapsed, MeshPEs: len(m.pes), PEs: make([]PEAttribution, 0, active)}
	for i := range m.pes {
		pa, ok := m.pes[i].attribution(elapsed)
		if !ok {
			continue
		}
		att.ActivePEs++
		att.Totals.add(&pa)
		att.PEs = append(att.PEs, pa)
	}
	return att
}

// AttributionTotals is Attribution without the per-PE list (PEs is nil):
// the run-wide sums, built without allocating.
func (m *Mesh) AttributionTotals() Attribution {
	_, att := m.Totals(nil)
	return att
}

// attribution is the PE's timeline decomposition over [0, elapsed], and
// whether the PE is active (an inactive PE is all-Idle and unlisted).
func (p *PE) attribution(elapsed int64) (PEAttribution, bool) {
	s := &p.stats
	if !s.active() {
		return PEAttribution{}, false
	}
	pa := PEAttribution{
		PE:           p.coord,
		Compute:      s.ComputeCycles,
		RelayForward: s.RelayCycles + s.SendCycles,
		QueueWait:    s.QueueWaitCycles,
		FabricStall:  s.FabricStallCycles,
		MailboxWait:  s.MailboxWaitCycles,
		Handled:      s.Handled,
		Forwarded:    s.Forwarded,
		Routed:       s.Routed,
	}
	pa.Idle = elapsed - pa.Busy() - pa.QueueWait - pa.FabricStall
	return pa, true
}

// add sums pa's buckets into a (the PE coordinate stays zero).
func (a *PEAttribution) add(pa *PEAttribution) {
	a.Compute += pa.Compute
	a.RelayForward += pa.RelayForward
	a.QueueWait += pa.QueueWait
	a.FabricStall += pa.FabricStall
	a.Idle += pa.Idle
	a.MailboxWait += pa.MailboxWait
	a.Handled += pa.Handled
	a.Forwarded += pa.Forwarded
	a.Routed += pa.Routed
}

// active reports whether a PE did any work or accumulated any wait — the
// PEs an Attribution lists.
func (s *Stats) active() bool {
	return s.BusyCycles() != 0 || s.Handled != 0 || s.Routed != 0 ||
		s.QueueWaitCycles != 0 || s.FabricStallCycles != 0
}
