package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"recordlayer/internal/fdb"
)

// The closed-loop driver: one client goroutine on one core sends each op only
// after the previous one completed. It runs the preload (set-up), one
// discarded warm-up slice, and then the timed phase as slices of a fixed op
// count.

const (
	// setupRepeats is how many times a run preloads a fresh cluster; setup_s
	// is the median, and the last cluster is the one measured.
	setupRepeats = 3
	// slices splits the timed phase. The collector is off inside a slice and
	// runs, untimed, between slices, so every slice is the same mutator work
	// on the same op mix and differs only by what the machine's neighbours
	// did to it; txn_per_s is the best slice's rate.
	slices = 15
	// traceShare is the fraction of the timed op count a -trace run executes.
	traceShare = 0.25
)

// phase accumulates what the timed slices observed.
type phase struct {
	ops, failed   int
	firstErr      error
	wall          []float64 // seconds per slice
	sliceOps      []int
	readNs        []int64 // simulated latency of every read op
	writeNs       []int64 // simulated latency of every write op, retries and backoff included
	allocBytes    uint64
	io            fdb.MetricsSnapshot
	payload       int64
	retries       int64
	planHits      int64
	planMisses    int64
	heapLiveBytes int64
}

// runOps executes ops back to back, recording each op's simulated latency.
func (e *env) runOps(ops []op, p *phase) {
	for i := range ops {
		o := &ops[i]
		t0 := e.now()
		err := e.exec(o)
		lat := e.now() - t0
		if p == nil {
			continue
		}
		p.ops++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d (kind %d, tenant %d): %w", i, o.kind, o.tenant, err)
			}
			continue
		}
		if o.kind.isWrite() {
			p.writeNs = append(p.writeNs, lat)
			p.payload += int64(o.payload)
		} else {
			p.readNs = append(p.readNs, lat)
		}
	}
}

// timedPhase runs ops as equal slices and measures wall time, allocation and
// the simulator's I/O counters around them. Each slice starts from a forced
// collection and runs with the collector off.
func (e *env) timedPhase(ops []op) *phase {
	p := &phase{readNs: make([]int64, 0, len(ops)), writeNs: make([]int64, 0, len(ops))}
	run0 := e.runner.Metrics()
	pc0 := e.provider.PlanCacheStats()
	io0 := e.db.Metrics().Snapshot()
	var ms runtime.MemStats
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	per := len(ops) / slices
	for r := 0; r < slices; r++ {
		chunk := ops[r*per : (r+1)*per]
		if r == slices-1 {
			chunk = ops[r*per:]
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		e.runOps(chunk, p)
		p.wall = append(p.wall, time.Since(t0).Seconds())
		p.sliceOps = append(p.sliceOps, len(chunk))
		runtime.ReadMemStats(&ms)
		p.allocBytes += ms.TotalAlloc - alloc0
	}
	p.io = e.db.Metrics().Snapshot().Delta(io0)
	p.retries = e.runner.Metrics().Retries - run0.Retries
	pc := e.provider.PlanCacheStats()
	p.planHits, p.planMisses = pc.Hits-pc0.Hits, pc.Misses-pc0.Misses
	return p
}

func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// percentile estimates the q-quantile of xs (which it sorts) as the mean of
// the order statistics within half a band on either side of rank q*n: the
// 45th-55th percentile for the median, the 98.5th-99.5th for p99. Simulated
// latencies are sums of a few fixed round-trip prices, so a single order
// statistic sits on a plateau and reads the same to the last digit whatever
// the seed; the band mean moves with the bytes the ops in it transferred.
func percentile(xs []int64, q, band float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := float64(len(xs))
	lo := max(0, int(math.Floor((q-band/2)*n)))
	hi := min(len(xs), max(lo+1, int(math.Ceil((q+band/2)*n))))
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += float64(x)
	}
	return sum / float64(hi-lo)
}

func p50(xs []int64) float64 { return percentile(xs, 0.50, 0.10) }
func p99(xs []int64) float64 { return percentile(xs, 0.99, 0.01) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sliceRates is every slice's ops per wall second, ascending.
func (p *phase) sliceRates() []float64 {
	rates := make([]float64, len(p.wall))
	for i, w := range p.wall {
		rates[i] = float64(p.sliceOps[i]) / w
	}
	sort.Float64s(rates)
	return rates
}

// txnPerSecond is the best slice's rate. Interference from the machine's
// neighbours only ever slows a slice down, so the fastest slice is the one
// that came closest to measuring the program alone; over ten runs of ten
// seeds it had half the spread of the median slice (README).
func (p *phase) txnPerSecond() float64 {
	rates := p.sliceRates()
	return rates[len(rates)-1]
}

// setUp preloads a fresh cluster setupRepeats times and returns the last one
// with every preload's wall time.
func setUp(w *workload, seed int64, g *generated, repeats int) (*env, []float64, error) {
	var e *env
	var times []float64
	for i := 0; i < repeats; i++ {
		e = nil
		runtime.GC()
		var err error
		if e, err = newEnv(w, seed); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := e.preload(g); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, times, nil
}

// runEndToEnd is one untraced run: generate, set up, warm up, time, check.
func runEndToEnd(w *workload, seed int64, nOps int) (*result, error) {
	g := generate(w, seed, nOps)
	base := heapAlloc()
	e, setups, err := setUp(w, seed, g, setupRepeats)
	if err != nil {
		return nil, err
	}
	// The preload is loaded; its messages would only be live heap for the
	// collector to mark during the timed phase. What they held comes off the
	// baseline, which is the benchmark's own share of the final heap.
	withPreload := heapAlloc()
	g.preload = nil
	base -= withPreload - heapAlloc()
	e.runOps(g.ops[:g.warm], nil)
	p := e.timedPhase(g.timed())
	p.heapLiveBytes = heapAlloc() - base

	res := newResult(w, seed)
	res.attempted, res.failed = p.ops, p.failed
	ops := float64(p.ops)
	res.set("setup_s", median(setups))
	res.set("txn_per_s", p.txnPerSecond())
	res.set("read_sim_p50_ms", p50(p.readNs)/1e6)
	res.set("read_sim_p99_ms", p99(p.readNs)/1e6)
	res.set("write_sim_p50_ms", p50(p.writeNs)/1e6)
	res.set("write_sim_p99_ms", p99(p.writeNs)/1e6)
	res.set("alloc_kb_per_txn", float64(p.allocBytes)/1024/ops)
	res.set("heap_live_mb", float64(p.heapLiveBytes)/(1<<20))
	res.set("keys_read_per_txn", float64(p.io.KeysRead)/ops)
	res.set("write_amp", float64(p.io.BytesWritten)/float64(p.payload))
	res.notef("samples: %d reads, %d writes; slice rates %v txn/s; setups %v s",
		len(p.readNs), len(p.writeNs), roundTo(p.sliceRates(), 0), roundTo(setups, 3))
	res.notef("retries %d (generated interference %d); plan cache hits %d misses %d",
		p.retries, g.interfered, p.planHits, p.planMisses)
	if p.firstErr != nil {
		res.fail("first failed op: %v", p.firstErr)
	}

	// Everything below is the correctness check, outside all timing.
	if p.retries != int64(g.interfered) {
		res.fail("runner retried %d times, generated interference was %d", p.retries, g.interfered)
	}
	spaceAmp, err := e.check(g, res)
	if err != nil {
		return nil, err
	}
	res.set("space_amp", spaceAmp)
	return res, nil
}

func roundTo(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	scale := math.Pow(10, float64(digits))
	for i, x := range xs {
		out[i] = math.Round(x*scale) / scale
	}
	return out
}
