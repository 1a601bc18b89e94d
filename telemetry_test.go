package ceresz

import (
	"runtime"
	"sync"
	"testing"
)

// TestTelemetryConcurrentCompress exercises the host-path registry under
// -race: several goroutines compress in parallel (each itself fanning out
// over worker goroutines) while telemetry records.
func TestTelemetryConcurrentCompress(t *testing.T) {
	EnableTelemetry()
	defer DisableTelemetry()
	data := make([]float32, 1<<14)
	for i := range data {
		data[i] = float32(i%97) * 0.25
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp, _, err := Compress(nil, data, REL(1e-3), Options{Workers: 4})
			if err != nil {
				t.Errorf("compress: %v", err)
				return
			}
			if _, err := Decompress(nil, comp); err != nil {
				t.Errorf("decompress: %v", err)
			}
		}()
	}
	wg.Wait()
	snap := HostTelemetry()
	if snap.Counters["core.compress.blocks"] == 0 {
		t.Fatalf("no blocks counted:\n%s", snap)
	}
	if snap.Hists["core.compress"].Count < 4 {
		t.Fatalf("compress duration count %d, want >= 4", snap.Hists["core.compress"].Count)
	}
	// On one processor Workers: 4 runs sequentially and no shard reports in.
	if runtime.GOMAXPROCS(0) > 1 && snap.Gauges["core.workers.active.max"] < 1 {
		t.Fatalf("worker occupancy never recorded:\n%s", snap)
	}
}

func TestSimResultTelemetry(t *testing.T) {
	data := make([]float32, 2048)
	for i := range data {
		data[i] = float32(i) / 17
	}
	res, err := SimulateCompress(data, REL(1e-3), MeshConfig{Rows: 2, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap.Counters["sim.cycles"] != res.Cycles {
		t.Fatalf("sim.cycles = %d, want %d", snap.Counters["sim.cycles"], res.Cycles)
	}
	if snap.Counters["sim.events"] == 0 || snap.Gauges["sim.active_pes"] == 0 {
		t.Fatalf("simulation telemetry empty:\n%s", snap)
	}
	if snap.Hists["sim.run_wall"].Count != 1 {
		t.Fatalf("run wall duration observed %d times", snap.Hists["sim.run_wall"].Count)
	}
	if snap.Counters["plan.group00.est_cycles"] == 0 ||
		snap.Counters["plan.group00.compute_cycles"] == 0 {
		t.Fatalf("per-group load missing:\n%s", snap)
	}

	dres, err := SimulateDecompress(res.Bytes, MeshConfig{Rows: 2, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Telemetry.Counters["sim.cycles"] != dres.Cycles {
		t.Fatalf("decompress telemetry cycles %d, want %d",
			dres.Telemetry.Counters["sim.cycles"], dres.Cycles)
	}
}
