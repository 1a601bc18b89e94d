package mapping

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ceresz/internal/core"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Block kinds that leave different traces in a block state.
const (
	kindCoded    = iota // smooth values: a wide fixed-length block
	kindZero            // all zeros: a width-0 block
	kindVerbatim        // one ±Inf among smooth values: stored raw
	kindNearZero        // within a few ε of zero: a narrow block
)

// kindCycle is a de Bruijn sequence over the four kinds: read cyclically,
// every ordered pair of kinds appears once as neighbors.
var kindCycle = [16]int{0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 2, 2, 3, 3}

// recycleField builds a field for a run on rows mesh rows whose blocks
// give every row's recycled states each kind after each other kind: row
// r gets blocks r, r+rows, …, so block b is the (b/rows)-th of its row.
// The field ends in a partial coded block, so its zero padding meets a
// state that last held a full block.
func recycleField(rows, L int, eps float64) []float32 {
	rng := rand.New(rand.NewSource(int64(rows)))
	nFull := rows * (len(kindCycle) + 1)
	data := make([]float32, nFull*L+L/2-1)
	infs := 0
	for b := 0; b*L < len(data); b++ {
		blk := data[b*L : min((b+1)*L, len(data))]
		kind := kindCycle[(b/rows)%len(kindCycle)]
		if len(blk) < L {
			kind = kindCoded
		}
		switch kind {
		case kindCoded, kindVerbatim:
			for i := range blk {
				blk[i] = float32(math.Sin(float64(b*L+i)*0.05)*3 + rng.NormFloat64()*0.1)
			}
			if kind == kindVerbatim {
				blk[rng.Intn(len(blk))] = float32(math.Inf(1 - 2*(infs%2)))
				infs++
			}
		case kindNearZero:
			for i := range blk {
				blk[i] = float32((rng.Float64()*6 - 3) * eps)
			}
		}
	}
	return data
}

// TestRecycledStatesCarryNothing runs fields that switch block kinds on
// every row through plans that recycle each row's block states, and
// holds the simulated compress and decompress output to the host codec's
// bit for bit: a state must carry nothing from one block to the next.
func TestRecycledStatesCarryNothing(t *testing.T) {
	const eps = 1e-3
	shapes := []struct {
		rows, cols, pl int
	}{
		{1, 1, 1},
		{1, 4, 2},
		{2, 4, 2},
		{3, 6, 3},
	}
	for _, sh := range shapes {
		data := recycleField(sh.rows, 32, eps)
		comp, stats, err := core.CompressWithEps(nil, data, eps, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		narrow := stats.WidthHistogram[1] + stats.WidthHistogram[2] + stats.WidthHistogram[3]
		if stats.ZeroBlocks == 0 || stats.VerbatimBlocks == 0 || narrow == 0 {
			t.Fatalf("%d rows: field lacks a block kind: %d zero, %d verbatim, %d narrow",
				sh.rows, stats.ZeroBlocks, stats.VerbatimBlocks, narrow)
		}
		ref, _, err := core.Decompress(nil, comp, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%dx%d_pl%d_workers%d", sh.rows, sh.cols, sh.pl, workers), func(t *testing.T) {
				cfg := PlanConfig{Mesh: wse.Config{Rows: sh.rows, Cols: sh.cols, Workers: workers}, PipelineLen: sh.pl}
				cplan, err := NewPlan(compressChain(t, eps, 8), cfg)
				if err != nil {
					t.Fatal(err)
				}
				cres, err := cplan.Compress(data)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cres.Bytes, comp) {
					t.Fatalf("simulated stream differs from host stream (%d vs %d bytes)", len(cres.Bytes), len(comp))
				}
				dplan, err := NewPlan(decompressChain(t, eps, 8), cfg)
				if err != nil {
					t.Fatal(err)
				}
				dres, err := dplan.Decompress(comp)
				if err != nil {
					t.Fatal(err)
				}
				if len(dres.Data) != len(ref) {
					t.Fatalf("%d elements, want %d", len(dres.Data), len(ref))
				}
				for i := range ref {
					if math.Float32bits(dres.Data[i]) != math.Float32bits(ref[i]) {
						t.Fatalf("element %d: simulated %g, host %g", i, dres.Data[i], ref[i])
					}
				}
			})
		}
	}
}

// TestPipelineLen1StatesPerRow checks that a run holds block states only
// for the blocks in flight: a PipelineLen-1 PE takes and returns a state
// in one handler, so each row allocates one, whatever the block count.
func TestPipelineLen1StatesPerRow(t *testing.T) {
	const eps = 1e-3
	cfg := PlanConfig{Mesh: wse.Config{Rows: 4, Cols: 4}, PipelineLen: 1}
	cplan, err := NewPlan(compressChain(t, eps, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dplan, err := NewPlan(decompressChain(t, eps, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, nBlocks := range []int{64, 8 * 64} {
		data := smoothField(32*nBlocks, 5)
		cres, err := cplan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := dplan.Decompress(cres.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		for dir, res := range map[string]*Result{"compress": cres, "decompress": dres} {
			if n := res.blockStates; n < 1 || n > cfg.Mesh.Rows {
				t.Errorf("%d blocks: %s made %d block states, want 1 to %d", nBlocks, dir, n, cfg.Mesh.Rows)
			}
		}
	}
}

// TestKeepChecksEveryBlockOnce drives the tail PE's exactly-once check
// directly: a block kept on a row it does not belong to, a block kept
// twice, and a block never kept must each fail the run's check, and the
// whole set kept once must pass it.
func TestKeepChecksEveryBlockOnce(t *testing.T) {
	const L, nBlocks, rows = 4, 7, 3
	newOut := func() *runOutput {
		o := &runOutput{dir: stages.Decompress, L: L, rows: make([]rowState, rows), data: make([]float32, nBlocks*L)}
		for r := range o.rows {
			o.rows[r].r, o.rows[r].n = r, (nBlocks-r+rows-1)/rows
		}
		return o
	}
	st := &stages.NewBlockStates[float32](L, 1)[0]
	keep := func(o *runOutput, row, id int) {
		o.keep(&o.rows[row], &flowBlock{id: id, st: st})
	}
	all := func(o *runOutput) {
		for id := 0; id < nBlocks; id++ {
			keep(o, id%rows, id)
		}
	}
	o := newOut()
	all(o)
	if err := o.check(nBlocks); err != nil {
		t.Fatalf("every block kept once: %v", err)
	}
	for _, tc := range []struct {
		name string
		run  func(o *runOutput)
		want string
	}{
		{"missing", func(o *runOutput) { keep(o, 0, 0) }, "1 blocks emitted, want 7"},
		{"twice", func(o *runOutput) { all(o); keep(o, 1, 4) }, "block 4 emitted twice"},
		{"wrong row", func(o *runOutput) { keep(o, 1, 3) }, "row 1 emitted block 3"},
		{"past the row's blocks", func(o *runOutput) { keep(o, 1, 7) }, "row 1 emitted block 7"},
	} {
		o := newOut()
		tc.run(o)
		if err := o.check(nBlocks); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
