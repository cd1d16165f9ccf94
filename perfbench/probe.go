package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/obs"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
)

// now reads the host clock. Every timing the benchmark takes goes through
// here, so the one wall-clock read the linter sees is this one.
func now() time.Time {
	return time.Now() //nepvet:allow det/wallclock the benchmark measures host time by definition
}

func sinceNs(t time.Time) int64 { return int64(now().Sub(t)) }

// median returns the middle of xs (mean of the two middles for even
// lengths), or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks, the convention of
// Python's statistics.quantiles(method="inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// throughputBatches is how many consecutive batches of completions
// throughput takes the median over.
const throughputBatches = 9

// throughput is completed operations per second. The completions (times
// from the window's start, ascending) are cut into up to throughputBatches
// batches of equal count; each batch's rate is its count over the time
// since the previous batch's last completion, and the median rate is
// reported, so a host stall that slows one stretch of the window moves one
// batch and not the figure.
func throughput(doneNs []int64) float64 {
	n := len(doneNs)
	nb := min(throughputBatches, n)
	var rates []float64
	var prev int64
	for j := 0; j < nb; j++ {
		lo, hi := j*n/nb, (j+1)*n/nb
		rates = append(rates, ratio(float64(hi-lo), float64(doneNs[hi-1]-prev)/1e9))
		prev = doneNs[hi-1]
	}
	return median(rates)
}

// ratio divides, reporting 0 for an empty denominator: a layer the workload
// does not exercise reads 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
// Where /proc is unavailable it falls back to the Go runtime's reservation.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// probe collects the per-layer view of a traced run. The simulation side
// (kernel, ME interpreter, policy, run wall time, allocations) is gathered
// over "sim spans" the workload brackets with simBegin/simEnd; everything
// else is recorded as named layer values by the workload itself.
type probe struct {
	// reg receives the probed runs' deterministic counters, either as
	// RunConfig.Metrics / experiments.Options.Metrics or merged from the
	// snapshots the run cache stores.
	reg *obs.Registry

	runs   atomic.Int64 // simulation runs completed inside sim spans
	busyNs atomic.Int64 // their summed wall time
	sinkNs atomic.Int64 // time spent in a timed ExtraSink inside those runs

	mu        sync.Mutex
	heapHW    float64 // max sim_heap_high_water over merged snapshots
	spanNs    int64
	spanUnits int // operations (or setups) the sim spans covered
	mallocs   uint64
	allocB    uint64
	values    map[string]float64

	spanStart time.Time
	ms0       runtime.MemStats
	unhook    func()
}

func newProbe() *probe {
	return &probe{reg: obs.NewRegistry(), values: map[string]float64{}}
}

// set records a workload-specific layer value.
func (p *probe) set(name string, v float64) {
	p.mu.Lock()
	p.values[name] = v
	p.mu.Unlock()
}

// simBegin opens a sim span: run wall times are observed through the
// process-wide run hook and allocation counters are sampled.
func (p *probe) simBegin() {
	p.unhook = experiments.ObserveRuns(nil, func(wall time.Duration, failed bool) {
		if !failed {
			p.runs.Add(1)
			p.busyNs.Add(int64(wall))
		}
	})
	runtime.ReadMemStats(&p.ms0)
	p.spanStart = now()
}

// simEnd closes the sim span opened by simBegin, which covered units
// operations.
func (p *probe) simEnd(units int) {
	d := sinceNs(p.spanStart)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.unhook()
	p.mu.Lock()
	p.spanNs += d
	p.spanUnits += units
	p.mallocs += ms.Mallocs - p.ms0.Mallocs
	p.allocB += ms.TotalAlloc - p.ms0.TotalAlloc
	p.mu.Unlock()
}

// mergeRun folds one run's stored metrics snapshot into the probe; used
// where runs publish through the cache rather than a live registry.
func (p *probe) mergeRun(s *obs.Snapshot) {
	if s == nil {
		return
	}
	// Keep the per-run heap high water as a max: a merged gauge would hold
	// only the last run's value.
	hw := s.Gauges["sim_heap_high_water"]
	c := *s
	c.Gauges = nil
	if err := p.reg.MergeSnapshot(c); err != nil {
		return
	}
	p.mu.Lock()
	p.heapHW = math.Max(p.heapHW, hw)
	p.mu.Unlock()
}

// timedSink times an ExtraSink (the trace writer) and counts events. Every
// call is timed: the sum then nests inside the run's wall time, so
// subtracting it can never leave a negative remainder.
type timedSink struct {
	inner  trace.Sink
	ns     int64
	events int64
}

func (t *timedSink) Emit(ev *trace.Event) error {
	s := now()
	err := t.inner.Emit(ev)
	t.ns += sinceNs(s)
	t.events++
	return err
}

// timedSource times trace reads: the reader's share of a replay. Every
// call is timed, for the same nesting reason as timedSink.
type timedSource struct {
	inner  trace.Source
	ns     int64
	events int64
}

func (t *timedSource) Next() (trace.Event, bool, error) {
	s := now()
	ev, ok, err := t.inner.Next()
	t.ns += sinceNs(s)
	if ok {
		t.events++
	}
	return ev, ok, err
}

// sampleGenMs times traffic generation for one run of cfg, calling the
// generator directly: the host cost core.Run pays before simulating.
func sampleGenMs(cfg core.RunConfig) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		s := now()
		g, err := traffic.NewGenerator(cfg.Traffic)
		if err != nil {
			return 0, err
		}
		g.GenerateUntil(cfg.Duration())
		ms = append(ms, float64(sinceNs(s))/1e6)
	}
	return median(ms), nil
}

// sampleRunKeyUs times content-key derivation for the given configs.
func sampleRunKeyUs(cfgs []core.RunConfig) (float64, error) {
	var us []float64
	for i := 0; i < 20; i++ {
		for _, c := range cfgs {
			s := now()
			if _, err := core.RunKey(c); err != nil {
				return 0, err
			}
			us = append(us, float64(sinceNs(s))/1e3)
		}
	}
	return median(us), nil
}

// simLayers renders the simulation-side layer metrics of the probe's sim
// spans. genMs is the measured per-run traffic generation cost, subtracted
// (with the timed sink time) from run wall time to leave kernel plus
// interpreter host time.
func (p *probe) simLayers(genMs float64, nproc int) map[string]float64 {
	snap := p.reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	sumME := func(suffix string) float64 {
		var t uint64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "npu_me") && strings.HasSuffix(name, suffix) {
				t += v
			}
		}
		return float64(t)
	}
	sumLOC := func(suffix string) float64 {
		var t uint64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "loc_") && strings.HasSuffix(name, suffix) {
				t += v
			}
		}
		return float64(t)
	}
	runs := float64(p.runs.Load())
	busy := float64(p.busyNs.Load())
	events := c("sim_events_dispatched")
	instrs := sumME("_instr_retired")
	hw := math.Max(p.heapHW, snap.Gauges["sim_heap_high_water"])
	simNs := busy - runs*genMs*1e6 - float64(p.sinkNs.Load())
	p.mu.Lock()
	defer p.mu.Unlock()
	units := float64(p.spanUnits)
	return map[string]float64{
		"sim.events_dispatched": ratio(events, runs),
		"sim.heap_pushes":       ratio(c("sim_heap_pushes"), runs),
		"sim.heap_high_water":   hw,
		"npu.instr_retired":     ratio(instrs, runs),
		"npu.poll_ops":          ratio(sumME("_poll_ops"), runs),
		"npu.mem_requests":      ratio(c("npu_sram_requests")+c("npu_sdram_requests"), runs),
		"sim.ns_per_event":      ratio(simNs, events),
		"npu.ns_per_instr":      ratio(simNs, instrs),
		"go.allocs_per_event":   ratio(float64(p.mallocs), events),
		"go.bytes_per_packet":   ratio(float64(p.allocB), c("npu_pkts_arrived")),
		"traffic.gen_ms":        genMs,
		"policy.windows":        ratio(c("dvs_windows"), runs),
		"policy.transitions":    ratio(c("dvs_transitions"), runs),
		"loc.instances":         ratio(sumLOC("_instances_total"), units),
		"loc.violations":        ratio(sumLOC("_violations_total"), units),
		"core.run_busy_s":       ratio(busy/1e9, units),
		"core.parallel_util":    ratio(busy, float64(p.spanNs)*float64(nproc)),
	}
}
