package wse

import "testing"

func TestRoutePassThrough(t *testing.T) {
	// A 1×4 strip where PEs 1 and 2 route color 5 eastward in hardware;
	// only PE 3 has a program for it.
	m, _ := NewMesh(Config{Rows: 1, Cols: 4})
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Forward(East)
	}))
	m.SetRoute(0, 1, 5, East)
	m.SetRoute(0, 2, 5, East)
	// PEs 1 and 2 still need programs for OTHER colors; give them one that
	// must never fire for color 5.
	for c := 1; c <= 2; c++ {
		c := c
		m.SetProgram(0, c, ProgramFunc(func(ctx *Context, msg Message) {
			t.Errorf("routed color dispatched to PE %d program", c)
		}))
	}
	var got []any
	m.SetProgram(0, 3, ProgramFunc(func(ctx *Context, msg Message) {
		got = append(got, msg.Payload)
	}))
	for b := 0; b < 3; b++ {
		m.Inject(0, 0, Message{Color: 5, Payload: b, Wavelets: 4}, 0)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("destination received %d messages, want 3", len(got))
	}
	for i, p := range got {
		if p.(int) != i {
			t.Fatalf("order broken: %v", got)
		}
	}
	// Routed PEs paid no processor time for the pass-through.
	for c := 1; c <= 2; c++ {
		st := m.PE(0, c).Stats()
		if st.BusyCycles() != 0 {
			t.Fatalf("PE %d paid %d processor cycles for routed traffic", c, st.BusyCycles())
		}
		if st.Routed != 3 {
			t.Fatalf("PE %d routed %d messages, want 3", c, st.Routed)
		}
	}
}

func TestRouteOnlyMatchingColor(t *testing.T) {
	// Color 2 is routed through PE 1; color 3 is delivered normally.
	m, _ := NewMesh(Config{Rows: 1, Cols: 3})
	m.SetRoute(0, 1, 2, East)
	var direct int
	m.SetProgram(0, 1, ProgramFunc(func(ctx *Context, msg Message) {
		direct++
		ctx.Forward(East)
	}))
	var arrived []Color
	m.SetProgram(0, 2, ProgramFunc(func(ctx *Context, msg Message) {
		arrived = append(arrived, msg.Color)
	}))
	m.Inject(0, 1, Message{Color: 2, Wavelets: 1}, 0)
	m.Inject(0, 1, Message{Color: 3, Wavelets: 1}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if direct != 1 {
		t.Fatalf("program handled %d messages, want 1 (only color 3)", direct)
	}
	if len(arrived) != 2 {
		t.Fatalf("destination saw %d messages", len(arrived))
	}
}

func TestRouteTimingIsLinkOnly(t *testing.T) {
	// Routed forwarding costs link latency + wavelets, with no processor
	// serialization: inject at t=0, the message crosses two routed hops.
	m, _ := NewMesh(Config{Rows: 1, Cols: 3})
	m.SetRoute(0, 0, 1, East)
	m.SetRoute(0, 1, 1, East)
	var at int64 = -1
	m.SetProgram(0, 2, ProgramFunc(func(ctx *Context, msg Message) {
		at = ctx.Now()
	}))
	m.Inject(0, 0, Message{Color: 1, Wavelets: 10}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Two hops × (1 latency + 10 wavelets) = 22.
	if at != 22 {
		t.Fatalf("arrival at %d, want 22", at)
	}
}

func TestRouteValidation(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("route off mesh", func() { m.SetRoute(0, 1, 0, East) })
	mustPanic("route to ramp", func() { m.SetRoute(0, 0, 0, Ramp) })
	mustPanic("bad color", func() { m.SetRoute(0, 0, 30, East) })
	m.SetRoute(0, 0, 0, East)
	m.SetProgram(0, 1, ProgramFunc(func(*Context, Message) {}))
	m.Inject(0, 0, Message{Color: 0, Wavelets: 1}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic("SetRoute after Run", func() { m.SetRoute(0, 0, 1, East) })
}

func TestRoutedLinkSerializesWithSends(t *testing.T) {
	// A routed message and a program send share the same east link; the
	// later one must wait for the link.
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	m.SetRoute(0, 0, 7, East)
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Forward(East) // color 0, program relay
	}))
	var arrivals []int64
	m.SetProgram(0, 1, ProgramFunc(func(ctx *Context, msg Message) {
		arrivals = append(arrivals, ctx.Now())
	}))
	// Routed message first occupies the link [0, 1+100].
	m.Inject(0, 0, Message{Color: 7, Wavelets: 100}, 0)
	m.Inject(0, 0, Message{Color: 0, Wavelets: 10}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	// First (routed): 101. Second: handler relay cost 10 ends ~10, link
	// free at 101 → departs 101, arrives 112.
	if arrivals[0] != 101 || arrivals[1] != 112 {
		t.Fatalf("arrivals %v, want [101 112]", arrivals)
	}
}
