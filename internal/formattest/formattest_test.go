package formattest

import (
	"strings"
	"testing"
)

// inputsDigest is the SHA-256 of every input in Inputs order, float64
// bits little-endian. The generator must not move: every row's digests
// were recorded from its output.
const inputsDigest = "9dd73d97251431277bab7b9cb5717a9db826f79054ffa3695407011283a789f3"

func TestInputsUnchanged(t *testing.T) {
	var all []float64
	for _, name := range Inputs {
		all = append(all, Input(name)...)
	}
	if got := SumFloats(all); got != inputsDigest {
		t.Fatalf("inputs digest %s, want %s", got, inputsDigest)
	}
}

// TestEveryRowHasDigests checks the committed table against the matrix:
// one line per row, each digest 64 hex digits, nothing left over.
func TestEveryRowHasDigests(t *testing.T) {
	rows := append(Rows(), StreamRow())
	if len(rows) != len(digests) {
		t.Errorf("%d rows, %d digest lines", len(rows), len(digests))
	}
	for _, r := range rows {
		for _, d := range []string{r.Stream, r.Decoded} {
			if len(d) != 64 || strings.Trim(d, "0123456789abcdef") != "" {
				t.Errorf("%s: digest %q", r.Name, d)
			}
		}
	}
}
