package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"ceresz/internal/chunkcache/keytest"
	"ceresz/internal/cszf/cszftest"
)

// FuzzFirstFramePayload holds the decompress side of routing, the first
// frame's payload (cszf.FirstPayload), to every other reader of the frame
// layout (cszftest.Check), and readPrefix, which reads the routing prefix,
// to its contract: the prefix is the body's first len(buf) bytes,
// fullyBuffered says the body ended inside the buffer, and a read error
// surfaces only when it cut the prefix short.
func FuzzFirstFramePayload(f *testing.F) {
	for _, r := range keytest.Requests() {
		if r.Path == "/v1/decompress" {
			f.Add(r.Body, uint16(len(r.Body)), false)
			f.Add(r.Body[:len(r.Body)-1], uint16(64), true)
		}
	}
	f.Add([]byte("CSZF\x0b\x00\x00\x00hello frametrailing junk"), uint16(4), false)
	f.Add([]byte("CSZ"), uint16(0), true)
	f.Add([]byte("XXXX\x04\x00\x00\x00data"), uint16(12), false)
	f.Add([]byte("CSZF\x00\x00\x00\x00"), uint16(9), false)

	errCut := errors.New("connection reset")
	f.Fuzz(func(t *testing.T, body []byte, bufLen uint16, cut bool) {
		cszftest.Check(t, body)

		var r io.Reader = bytes.NewReader(body)
		if cut {
			r = io.MultiReader(r, iotest.ErrReader(errCut))
		}
		buf := make([]byte, bufLen)
		prefix, full, err := readPrefix(r, buf)
		short := len(body) < len(buf)
		switch {
		case cut && short:
			if !errors.Is(err, errCut) {
				t.Fatalf("body %d bytes, buffer %d, read cut: err %v", len(body), len(buf), err)
			}
		case err != nil:
			t.Fatalf("body %d bytes, buffer %d: %v", len(body), len(buf), err)
		case full != short || !bytes.Equal(prefix, body[:min(len(body), len(buf))]):
			t.Fatalf("body %d bytes, buffer %d: prefix %d bytes, fullyBuffered %v", len(body), len(buf), len(prefix), full)
		}
	})
}
