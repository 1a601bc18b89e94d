package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/cluster"
	"ceresz/internal/flenc"
	"ceresz/internal/hostpool"
	"ceresz/internal/lorenzo"
	"ceresz/internal/mapping"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/telemetry"
	"ceresz/internal/wse"
)

const blockLen = 32 // the paper's block length, the codec default

// sink keeps results alive so the compiler cannot drop a measured call.
var sink uint64

// perCall times fn: batches of calls until budget is spent, at least five
// batches, and returns the median batch's seconds per call.
func perCall(budget time.Duration, fn func()) float64 {
	fn() // warm buffers and caches
	calls := 1
	for {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := time.Since(t0); d >= budget/10 || calls >= 1<<24 {
			break
		}
		calls *= 2
	}
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per = append(per, time.Since(t0).Seconds()/float64(calls))
	}
	return median(per)
}

// kernelInput is the first blocks of an item taken through quantize →
// Lorenzo → sign split, so the kernel rows run on the workload's own
// residual widths, not synthetic ones.
type kernelInput struct {
	f32    []float32
	f64    []float64
	codes  []int32  // quantized
	resid  []int32  // after Lorenzo, per block
	abs    []uint32 // after sign split
	widths []uint
	planes [][]byte // shuffled planes per block
	enc    [][]byte // encoded blocks
}

func newKernelInput(it *item, maxBlocks int) (*kernelInput, error) {
	n := min(it.elems()/blockLen, maxBlocks) * blockLen
	k := &kernelInput{codes: make([]int32, n), resid: make([]int32, n), abs: make([]uint32, n)}
	var lo, hi float64
	if it.f64 != nil {
		k.f64 = it.f64[:n]
		lo, hi = quant.Range64(k.f64)
	} else {
		k.f32 = it.f32[:n]
		lo, hi = quant.Range(k.f32)
	}
	eps, err := it.bound.Resolve(lo, hi)
	if err != nil {
		return nil, err
	}
	q, err := quant.NewQuantizer(eps)
	if err != nil {
		return nil, err
	}
	if it.f64 != nil {
		q.Quantize64(k.codes, k.f64)
	} else {
		q.Quantize(k.codes, k.f32)
	}
	signs := make([]byte, blockLen/8)
	scratch := flenc.NewBlock(blockLen)
	for b := 0; b < n; b += blockLen {
		lorenzo.Forward(k.resid[b:b+blockLen], k.codes[b:b+blockLen])
		w := flenc.SplitSignsWidth(k.abs[b:b+blockLen], signs, k.resid[b:b+blockLen])
		k.widths = append(k.widths, w)
		planes := make([]byte, int(w)*flenc.PlaneBytes(blockLen))
		flenc.Shuffle(planes, k.abs[b:b+blockLen], w)
		k.planes = append(k.planes, planes)
		enc, _ := flenc.EncodeBlock(nil, k.resid[b:b+blockLen], flenc.HeaderU32, scratch)
		k.enc = append(k.enc, enc)
	}
	return k, nil
}

// kernelMetrics fills the flenc / quant / lorenzo rows. GB/s count the
// raw element bytes a kernel covers (4 per code), so they compare with
// host.memcpy_gbps and the codec's own rate.
func kernelMetrics(m metrics, k *kernelInput, budget time.Duration) {
	n := len(k.codes)
	blocks := n / blockLen
	gbps := func(bytes int, sec float64) float64 { return float64(bytes) / sec / 1e9 }
	tmp := make([]byte, 32*flenc.PlaneBytes(blockLen))
	abs := make([]uint32, blockLen)
	codes := make([]int32, blockLen)
	scratch := flenc.NewBlock(blockLen)

	shuffle := func(f func([]byte, []uint32, uint)) func() {
		return func() {
			for b := 0; b < blocks; b++ {
				w := k.widths[b]
				f(tmp[:int(w)*flenc.PlaneBytes(blockLen)], k.abs[b*blockLen:(b+1)*blockLen], w)
			}
			sink += uint64(tmp[0])
		}
	}
	tShuffle := perCall(budget, shuffle(flenc.Shuffle))
	tScalar := perCall(budget, shuffle(flenc.ShuffleScalar))
	m.set("flenc.shuffle_gbps", gbps(4*n, tShuffle))
	m.set("flenc.shuffle_vs_scalar", tScalar/tShuffle)
	m.set("flenc.unshuffle_gbps", gbps(4*n, perCall(budget, func() {
		for b := 0; b < blocks; b++ {
			flenc.Unshuffle(abs, k.planes[b], k.widths[b])
		}
		sink += uint64(abs[0])
	})))
	var out []byte
	m.set("flenc.encode_block_ns", 1e9/float64(blocks)*perCall(budget, func() {
		for b := 0; b < blocks; b++ {
			out, _ = flenc.EncodeBlock(out[:0], k.resid[b*blockLen:(b+1)*blockLen], flenc.HeaderU32, scratch)
		}
		sink += uint64(len(out))
	}))
	m.set("flenc.decode_block_ns", 1e9/float64(blocks)*perCall(budget, func() {
		for b := 0; b < blocks; b++ {
			if _, err := flenc.DecodeBlock(codes, k.enc[b], flenc.HeaderU32, scratch); err != nil {
				panic(err) // the bench encoded these blocks itself
			}
		}
		sink += uint64(codes[0])
	}))
	if k.f64 != nil {
		m.set("quant.range_gbps", gbps(8*n, perCall(budget, func() {
			lo, _ := quant.Range64(k.f64)
			sink += uint64(lo)
		})))
	} else {
		m.set("quant.range_gbps", gbps(4*n, perCall(budget, func() {
			lo, _ := quant.Range(k.f32)
			sink += uint64(lo)
		})))
	}
	m.set("lorenzo.forward_gbps", gbps(4*n, perCall(budget, func() {
		for b := 0; b < n; b += blockLen {
			lorenzo.Forward(codes, k.codes[b:b+blockLen])
		}
		sink += uint64(codes[0])
	})))
	m.set("lorenzo.inverse_gbps", gbps(4*n, perCall(budget, func() {
		for b := 0; b < n; b += blockLen {
			lorenzo.Inverse(codes, k.resid[b:b+blockLen])
		}
		sink += uint64(codes[0])
	})))
}

// hostMetrics fills the roofline denominator and the machine's shape.
func hostMetrics(m metrics, bytes int, budget time.Duration) {
	src := make([]byte, bytes)
	dst := make([]byte, bytes)
	for i := range src {
		src[i] = byte(i)
	}
	m.set("host.memcpy_gbps", float64(bytes)/perCall(budget, func() { copy(dst, src) })/1e9)
	m.set("host.num_cpu", float64(runtime.NumCPU()))
	m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	l2, l3 := cacheKiB()
	m.set("host.l2_kib", float64(l2))
	m.set("host.l3_kib", float64(l3))
}

// cacheKiB reads cpu0's L2 and L3 sizes from sysfs; 0 where unknown.
func cacheKiB() (l2, l3 int) {
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		size, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(size))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			s = strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1024
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			l2 = v * mult
		case "3":
			l3 = v * mult
		}
	}
	return l2, l3
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is VmHWM, the process's resident high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cacheMetrics times chunkcache's own operations on one request's chunks.
func cacheMetrics(m metrics, body []byte, chunkBytes int, budget time.Duration) {
	chunk := body[:min(chunkBytes, len(body))]
	h := chunkcache.NewHasher()
	pre := chunkcache.AppendCompressPreamble(h.Preamble(), byte(ceresz.Float32), true, 1e-3, blockLen)
	pre = append([]byte(nil), pre...)
	tKey := perCall(budget, func() {
		k := h.Key(pre, chunk)
		sink += uint64(k[0])
	})
	m.set("chunkcache.key_gbps", float64(len(chunk))/tKey/1e9)
	m.set("chunkcache.key_ms_per_req", tKey*1e3*float64(len(body))/float64(len(chunk)))

	c := chunkcache.New(64<<20, telemetry.NewRegistry())
	val := make([]byte, len(chunk)/4)
	key := h.Key(pre, chunk)
	if hd, err := c.Get(key); err != nil || hd.Outcome() != chunkcache.Miss {
		panic("chunkcache: first Get on an empty cache did not miss")
	} else {
		hd.Complete(val, chunkcache.Meta{})
	}
	m.set("chunkcache.hit_ns", 1e9*perCall(budget, func() {
		hd, err := c.Get(key)
		if err != nil || hd.Outcome() != chunkcache.Hit {
			panic("chunkcache: resident key did not hit")
		}
		hd.Release()
	}))
	var n uint64
	m.set("chunkcache.miss_complete_ns", 1e9*perCall(budget, func() {
		n++
		var k chunkcache.Key
		for i := 0; i < 8; i++ {
			k[i] = byte(n >> (8 * i))
		}
		k[31] = 0xA5
		hd, err := c.Get(k)
		if err != nil || hd.Outcome() != chunkcache.Miss {
			panic("chunkcache: fresh key did not miss")
		}
		hd.Complete(val, chunkcache.Meta{})
	}))
}

// poolMetrics times hostpool.Run over no-op shards: the fixed cost a
// parallel call pays before any block is touched.
func poolMetrics(m metrics, C int, budget time.Duration) {
	m.set("hostpool.run_empty_ns", 1e9*perCall(budget, func() {
		hostpool.Run(C, C, func(shard, lo, hi int) {})
	}))
}

// ringMetrics times the consistent-hash owner lookup.
func ringMetrics(m metrics, ring *cluster.Ring, budget time.Duration) {
	var k chunkcache.Key
	var n uint64
	m.set("cluster.owner_ns", 1e9*perCall(budget, func() {
		n++
		k[0], k[1], k[2] = byte(n), byte(n>>8), byte(n>>16)
		sink += uint64(ring.Owner(k))
	}))
}

// planMetrics times the simulator's planning steps on the simulated item.
func planMetrics(m metrics, it *item, budget time.Duration) error {
	lo, hi := quant.Range(it.f32)
	eps, err := it.bound.Resolve(lo, hi)
	if err != nil {
		return err
	}
	var w uint
	m.set("stages.estimate_width_ms", 1e3*perCall(budget, func() {
		w, err = stages.EstimateWidth(it.f32, eps, blockLen, 20)
		sink += uint64(w)
	}))
	if err != nil {
		return err
	}
	chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: int(w)})
	if err != nil {
		return err
	}
	mesh := simMeshes[0]
	m.set("mapping.plan_ms", 1e3*perCall(budget, func() {
		var p *mapping.Plan
		p, err = mapping.NewPlan(chain, mapping.PlanConfig{Mesh: wse.Config{Rows: mesh.Rows, Cols: mesh.Cols}, PipelineLen: 1})
		if err == nil {
			sink += uint64(p.TotalCycles())
		}
	}))
	return err
}

// allocsPerOp is testing.AllocsPerRun over the sequential one-shot
// compress with a warm destination: the zero-allocation contract.
func allocsPerOp(it *item) float64 {
	p := &corePath{workers: 1}
	if _, err := p.compress(it); err != nil {
		return -1
	}
	return testing.AllocsPerRun(3, func() {
		if _, err := p.compress(it); err != nil {
			panic(err)
		}
	})
}
