// Package cszftest holds the module's readers of CSZF framed bytes to one
// another. The fuzz targets of the library (FuzzStreamFrames), the client
// (FuzzDeclaredElements), the proxy (FuzzFirstFramePayload) and package cszf
// (FuzzWalkers) all call Check, so each of them tests the same property on
// its own corpus: whatever the bytes, the slice walk (cszf.Cut), the stream
// walk the library's StreamReader reads through (cszf.Reader, whole and one
// byte at a time), the client's response size (cszf.DeclaredElements) and
// the proxy's routing payload (cszf.FirstPayload) agree. It imports nothing
// that imports it back, so any package's tests may use it.
package cszftest

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"ceresz/internal/core"
	"ceresz/internal/cszf"
)

// maxElements is the client's cap on what a decompress request may declare.
const maxElements = 1 << 30

// limits are the limit sets the walks run under: none (the proxy's), caps
// small enough for the seeds to reach, and the client's, last.
var limits = []cszf.Limits{{}, {MaxFrameBytes: 1 << 12, MaxElements: 1 << 10}, {MaxElements: maxElements}}

// Check fails t unless every reader of framed bytes makes the same of b.
func Check(t testing.TB, b []byte) {
	t.Helper()
	var walks [][][]byte // per limit set, the payloads the stream walk read
	var errs []error
	for _, lim := range limits {
		cut, cutErr := cutWalk(b, lim)
		read, readErr := readWalk(bytes.NewReader(b), lim)
		oneByte, oneErr := readWalk(iotest.OneByteReader(bytes.NewReader(b)), lim)
		for _, w := range []struct {
			name     string
			payloads [][]byte
			err      error
		}{{"cszf.Reader", read, readErr}, {"cszf.Reader, one byte per Read", oneByte, oneErr}} {
			if !equal(cut, w.payloads) || class(cutErr) != class(w.err) {
				t.Fatalf("%+v: cszf.Cut reads %d frames then %v; %s reads %d then %v",
					lim, len(cut), cutErr, w.name, len(w.payloads), w.err)
			}
		}
		walks, errs = append(walks, read), append(errs, readErr)
	}

	// The proxy routes by the first frame's payload, when it has one.
	p, ok := cszf.FirstPayload(b)
	first := walks[0]
	if want := len(first) > 0 && len(first[0]) > 0; ok != want || ok && !bytes.Equal(p, first[0]) {
		t.Fatalf("cszf.FirstPayload = %d bytes, %v; the walk read %d frames", len(p), ok, len(first))
	}

	// The client sizes its response from the frames it sends.
	counted, countErr := walks[len(limits)-1], errs[len(limits)-1]
	vouched := false
	for _, elem := range []core.Elem{core.Float32, core.Float64} {
		n, ok := cszf.DeclaredElements(b, elem, maxElements)
		want, wantOK := sum(counted, elem)
		wantOK = wantOK && countErr == nil
		if !wantOK {
			want = 0
		}
		if ok != wantOK || n != want {
			t.Fatalf("cszf.DeclaredElements(%v) = %d, %v; the walk says %d, %v (walk error %v)",
				elem, n, ok, want, wantOK, countErr)
		}
		if ok && len(b) > 0 {
			if vouched {
				t.Fatal("one stream vouched for as both float32 and float64")
			}
			vouched = true
		}
	}
}

// cutWalk walks b with cszf.Cut, returning the payloads it cut and the
// error that ended it (nil at a clean end).
func cutWalk(b []byte, lim cszf.Limits) ([][]byte, error) {
	var out [][]byte
	for {
		p, rest, err := cszf.Cut(b, lim)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
		b = rest
	}
}

// readWalk is cutWalk through a cszf.Reader over r.
func readWalk(r io.Reader, lim cszf.Limits) ([][]byte, error) {
	var fr cszf.Reader
	fr.SetLimits(lim)
	fr.Reset(r)
	var out [][]byte
	for {
		p, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, bytes.Clone(p))
	}
}

// sum adds up the elements the payloads declare: ok is false when one holds
// another element type than elem or the total passes maxElements.
func sum(payloads [][]byte, elem core.Elem) (n int, ok bool) {
	for _, p := range payloads {
		m, err := core.ParseHeader(p)
		if err != nil || m.Elem != elem || m.Elements > maxElements-n {
			return 0, false
		}
		n += m.Elements
	}
	return n, true
}

func equal(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// class names the kind of failure err is, the part of it readers must agree
// on; the wording may differ.
func class(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, cszf.ErrTruncated):
		return "truncated"
	case errors.Is(err, cszf.ErrFrameTooLarge):
		return "too large"
	case errors.Is(err, core.ErrBadStream):
		return "malformed"
	}
	return "untyped: " + err.Error()
}
