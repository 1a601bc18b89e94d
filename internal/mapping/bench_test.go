package mapping

import (
	"os"
	"strconv"
	"testing"

	"ceresz/internal/wse"
)

// BenchmarkPlanRoundTrip is the wse-sim workload as a Go benchmark: the
// whole Small-scale NYX field 3 compressed and then decompressed at REL
// 1e-3 on each of the workload's three meshes, with the mapping's real
// stage work, block states and relays. One op is one round trip.
//
// CERESZ_SIM_WORKERS sets the worker count exactly as for the wse
// package's BenchmarkMeshRun (0/unset = one worker per CPU, N = a pool of
// N), so cmd/benchdiff pairs one worker's rows with a pool's.
func BenchmarkPlanRoundTrip(b *testing.B) {
	data := nyxField(b, 0)
	workers := 0
	if s := os.Getenv("CERESZ_SIM_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			workers = n
		}
	}
	for _, sh := range []struct {
		name              string
		rows, cols, plLen int
	}{
		{"64x8", 64, 8, 1},
		{"64x64", 64, 64, 1},
		{"128x16", 128, 16, 2},
	} {
		b.Run(sh.name, func(b *testing.B) {
			cfg := PlanConfig{Mesh: wse.Config{Rows: sh.rows, Cols: sh.cols, Workers: workers}, PipelineLen: sh.plLen}
			cp, dp := roundTripPlans(b, data, 1e-3, cfg)
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(data)))
			var events int64
			for i := 0; i < b.N; i++ {
				cres, err := cp.Compress(data)
				if err != nil {
					b.Fatal(err)
				}
				dres, err := dp.Decompress(cres.Bytes)
				if err != nil {
					b.Fatal(err)
				}
				events = cres.Mesh.Processed() + dres.Mesh.Processed()
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}
