// Package formattest is the block codec's known-answer corpus: a seeded
// input generator, the matrix of codec parameters it covers, and the
// SHA-256 of every compressed stream and decoded output, committed from
// the codec's bytes when the corpus was recorded (digests.txt). The codec's
// readers — internal/core on every kernel set, the root package and the
// simulated pipeline in internal/mapping — each reproduce every row they
// can run, so a change to the wire format cannot land in one of them, or
// in all of them at once, without a digest moving. Only tests import this
// package; it imports nothing of the module, so any of them can.
package formattest

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
)

// Row is one known answer: an input, the parameters it is compressed
// with (Bound is ε, or λ for a REL row; Workers must not matter), and the
// hex SHA-256 of the stream and of the decoded values (SumFloats).
type Row struct {
	Name                  string // e.g. "f32/abs/u32/L32/smooth/w1"
	F64, Rel              bool
	Bound                 float64
	HeaderBytes, BlockLen int
	Input                 string
	Workers               int
	Stream, Decoded       string
}

// Inputs names the generated inputs: a smooth field, wide-width noise with
// spikes, a mostly-zero field, one salted with NaN, ±Inf, huge and
// subnormal values (verbatim blocks), and a field whose length is no
// multiple of 8 (a partial trailing block at every L).
var Inputs = []string{"smooth", "rough", "zero", "special", "tail"}

// Bound values: ε for ABS rows, λ for REL rows.
const (
	AbsEps    = 1e-3
	RelLambda = 1e-4
)

// StreamChunk is the elements per frame of the StreamRow's CSZF stream.
const StreamChunk = 300

//go:embed digests.txt
var digestFile string

// digests maps a row name to its stream and decoded digests.
var digests = func() map[string][2]string {
	m := map[string][2]string{}
	for _, line := range strings.Split(digestFile, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0][0] != '#' {
			m[f[0]] = [2]string{f[1], f[2]}
		}
	}
	return m
}()

// Rows returns the matrix: {f32, f64} × {ABS, REL} × {u8, u32} header ×
// L ∈ {8, 32, 40} × Inputs × workers {1, 3}.
func Rows() []Row {
	var rows []Row
	for _, f64 := range []bool{false, true} {
		for _, rel := range []bool{false, true} {
			for _, hdr := range []int{1, 4} {
				for _, L := range []int{8, 32, 40} {
					for _, in := range Inputs {
						for _, w := range []int{1, 3} {
							rows = append(rows, newRow(f64, rel, hdr, L, in, w))
						}
					}
				}
			}
		}
	}
	return rows
}

// SimRow is the matrix row the simulated pipeline reproduces.
func SimRow() Row { return newRow(false, false, 4, 32, "special", 1) }

// StreamRow is the CSZF row: the input written through the root package's
// StreamWriter in frames of StreamChunk elements (REL resolves per frame),
// read back frame by frame. Stream is the whole framed stream's digest,
// Decoded that of the concatenated frames' values.
func StreamRow() Row {
	r := newRow(false, true, 4, 32, "rough", 1)
	return r.named("cszf/" + r.Name)
}

func newRow(f64, rel bool, hdr, L int, input string, workers int) Row {
	r := Row{F64: f64, Rel: rel, Bound: AbsEps, HeaderBytes: hdr, BlockLen: L, Input: input, Workers: workers}
	elem, mode := "f32", "abs"
	if f64 {
		elem = "f64"
	}
	if rel {
		mode, r.Bound = "rel", RelLambda
	}
	return r.named(fmt.Sprintf("%s/%s/u%d/L%d/%s/w%d", elem, mode, 8*hdr, L, input, workers))
}

func (r Row) named(name string) Row {
	r.Name, r.Stream, r.Decoded = name, digests[name][0], digests[name][1]
	return r
}

// Mismatch describes a reader's output for r that does not match its
// digests, or "" if it does. It begins with the digests.txt line for what
// the reader produced.
func (r Row) Mismatch(stream []byte, decoded string) string {
	got := sha256.Sum256(stream)
	if hex.EncodeToString(got[:]) == r.Stream && decoded == r.Decoded {
		return ""
	}
	return fmt.Sprintf("%s %x %s (want %s %s)", r.Name, got, decoded, r.Stream, r.Decoded)
}

// SumFloats is the hex SHA-256 of x's little-endian bit patterns.
func SumFloats[F float32 | float64](x []F) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, x)
	return hex.EncodeToString(h.Sum(nil))
}

// Data returns r's input in its element type. Converting a NaN is not
// pinned down across hosts, so a NaN becomes a set quiet NaN with a
// payload, which a verbatim block keeps.
func Data[F float32 | float64](r Row) []F {
	var nan F
	switch p := any(&nan).(type) {
	case *float32:
		*p = math.Float32frombits(0x7fc00001)
	case *float64:
		*p = math.Float64frombits(0x7ff8000000000001)
	}
	in := Input(r.Input)
	out := make([]F, len(in))
	for i, v := range in {
		out[i] = F(v)
		if v != v {
			out[i] = nan
		}
	}
	return out
}

// inputLen is 8·160 elements: whole blocks at every L of the matrix.
const inputLen = 1280

// Input generates the named input, the same on every host: it uses no
// library function, and every product is rounded before an add (Go may
// otherwise fuse the two on some hosts).
func Input(name string) []float64 {
	var r splitMix
	for _, c := range name {
		r = r*31 + splitMix(c)
	}
	x := make([]float64, inputLen)
	switch name {
	case "smooth", "special", "tail":
		// A random walk of the slope: smooth at every scale the codec sees.
		step := 0.002
		if name == "tail" {
			x, step = append(x, 0, 0, 0, 0, 0), 0.05
		}
		v, y := 0.0, 0.0
		for i := range x {
			v += float64(step * r.sym())
			y += v
			x[i] = y
		}
		if name == "special" {
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e30, -1e30,
				1e5 + r.float(), math.Copysign(0, -1), 1e-40, 3e38, -2.5e6}
			for i := 5; i < len(x); i += 37 {
				x[i] = specials[(i/37)%len(specials)]
			}
		}
	case "rough":
		for i := range x {
			x[i] = 1e3 * r.sym()
			if i%97 == 0 {
				x[i] = 1e6 * (1 + r.float()) * math.Copysign(1, r.sym())
			}
		}
	case "zero":
		for i := range x {
			switch {
			case (i/40)%9 == 4:
				x[i] = float64(0.01*float64(i%40)) - 0.2
			case i%3 == 0:
				x[i] = 1e-6 * r.sym()
			}
		}
	default:
		panic("formattest: no input " + name)
	}
	return x
}

// splitMix is SplitMix64, small enough to state here so that the inputs
// do not move with a library's generator.
type splitMix uint64

func (s *splitMix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitMix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// sym returns a uniform value in [-1, 1).
func (s *splitMix) sym() float64 { return float64(2*s.float()) - 1 }
