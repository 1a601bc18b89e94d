// Package keytest holds a handful of HTTP requests together with the cache
// key each must produce, committed as known answers. Three tests read it:
// internal/chunkcache derives every key from the key definition on every
// kernel set; internal/server serves the decompress requests and looks
// their keys up in its cache; internal/cluster asks the proxy's routing
// function for the same keys. While all three pass, the backend's cache key
// and the proxy's routing digest for one decompress request are the same
// 32 bytes, and a change to the key definition cannot land in one tier
// without the others. The compress rows pin the raw-chunk key layout that
// no tier keys traffic with but whose rate the benchmark measures. Only
// tests import this package; it imports nothing of the module, so any of
// them can.
package keytest

import (
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Request is one POST and the key of the first thing in it the key layout
// covers: the first chunk of a compress body, or the first frame payload of
// a decompress body.
type Request struct {
	Name  string
	Path  string // "/v1/compress", "/v1/decompress", "/v1/bundle"
	Query string // as a client writes it, without the "?"
	Body  []byte
	// Preamble and Data are what the key definition is applied to: the
	// exact preamble bytes the request's parameters come to, and the part
	// of Body the key covers.
	Preamble []byte
	Data     []byte
	Key      [32]byte
}

// frame32 and frame64 are one valid CSZF frame each: 700 float32 values
// (2016 payload bytes) and 400 float64 values (1300) under ABS 1e-2, so the
// key of either payload has one block in every lane and a tail. Committed
// bytes, not a call into the codec: the key of a payload must not move when
// the codec's output does.
//
//go:embed frame32.cszf
var frame32 []byte

//go:embed frame64.cszf
var frame64 []byte

// Requests returns the known answers. A compress row's first chunk is cut
// at cereszd's default of 64 Ki elements unless its query says otherwise.
func Requests() []Request {
	f32 := floats32(80_000, 1) // 320 000 B: one full 256 KiB chunk and a partial one
	f64 := floats64(2_500, 2)  // chunk=1000: 8000-byte chunks, seven blocks per lane and an 832-byte tail
	eps := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return []Request{
		{
			Name: "compress/f32-abs-defaults", Path: "/v1/compress", Query: "eps=0.001",
			Body:     f32,
			Preamble: cat([]byte{2, 1, 0, 1}, eps(0.001), []byte{32, 0, 0, 0}),
			Data:     f32[:256<<10],
			Key:      key("0daa12cce7a7c05947f13f015b4b6fce6cab395e9943210bbf087efbbf569298"),
		},
		{
			Name: "compress/f64-rel-chunk-block", Path: "/v1/compress", Query: "mode=rel&eps=0.01&elem=f64&chunk=1000&block=64",
			Body:     f64,
			Preamble: cat([]byte{2, 1, 1, 0}, eps(0.01), []byte{64, 0, 0, 0}),
			Data:     f64[:8000],
			Key:      key("12abf4177d44d1aca0819853f71eed3d4d677254a30a3456fedf0c8c246886f7"),
		},
		{
			Name: "decompress/f32", Path: "/v1/decompress", Query: "",
			Body:     frame32,
			Preamble: []byte{2, 2, 0},
			Data:     frame32[8:],
			Key:      key("b712d04553702034af6f831115b004ec5bc2bbd5434d494ce806f89dc7f66940"),
		},
		{
			Name: "decompress/f64", Path: "/v1/decompress", Query: "elem=f64",
			Body:     frame64,
			Preamble: []byte{2, 2, 1},
			Data:     frame64[8:],
			Key:      key("9bf8f32dcf7428cb3d5064191f6dff530f1caf2bcd38a2e0a1c344c74d9d40e6"),
		},
	}
}

// noise steps a linear congruential generator; the bodies need to be the
// same bytes on every platform, not random.
func noise(x *uint32) float64 {
	*x = *x*1664525 + 1013904223
	return float64(int32(*x>>22)-512) / 64 // exact in float32
}

// floats32 returns n little-endian float32 values: a ramp plus noise, every
// value a small multiple of 1/64.
func floats32(n int, seed uint32) []byte {
	out := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		v := float32(float64(i%977)/4 + noise(&seed))
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// floats64 is floats32 for float64.
func floats64(n int, seed uint32) []byte {
	out := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(i%977)/4+noise(&seed)))
	}
	return out
}

func key(s string) (k [32]byte) {
	if n, err := hex.Decode(k[:], []byte(s)); err != nil || n != len(k) {
		panic("keytest: bad key literal " + s)
	}
	return k
}
