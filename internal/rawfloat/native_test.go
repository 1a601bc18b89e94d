//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package rawfloat

import (
	"bytes"
	"testing"
)

// TestNativeIsAView: in this build Bytes and ReadFull copy nothing — the
// bytes are the floats' memory. It would also fail on a target wrongly
// added to the little-endian list, which TestWireImageBitExact catches
// too, value by value.
func TestNativeIsAView(t *testing.T) {
	f := []float32{1, 2}
	b := Bytes(make([]byte, 8), f)
	if !bytes.Equal(b, []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40}) {
		t.Fatalf("wire image of {1, 2} = %x", b)
	}
	f[0] = 2
	if !bytes.Equal(b[:4], b[4:]) {
		t.Fatal("Bytes copied: the result did not follow a write to the floats")
	}
	wire := []byte{0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x3f}
	in, err := ReadFull(bytes.NewReader(wire), f, nil)
	if err != nil || f[0] != 1 || f[1] != 1 {
		t.Fatalf("ReadFull: %v, floats %v", err, f)
	}
	if &in[0] != &b[0] {
		t.Fatal("ReadFull returned bytes outside the floats' memory")
	}
}
