package npu

import (
	"reflect"
	"testing"

	"nepdvs/internal/isa"
	"nepdvs/internal/power"
	"nepdvs/internal/sim"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumMEs = 0 },
		func(c *Config) { c.NumCtx = 0 },
		func(c *Config) { c.NumCtx = 9 },
		func(c *Config) { c.RxMEs = 0 },
		func(c *Config) { c.RxMEs = c.NumMEs },
		func(c *Config) { c.MEVF = power.VF{} },
		func(c *Config) { c.RefMHz = 0 },
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.PortMbps = 0 },
		func(c *Config) { c.BusGbps = -1 },
		func(c *Config) { c.RFIFODepth = 0 },
		func(c *Config) { c.TFIFODepth = 0 },
		func(c *Config) { c.TxRingDepth = 0 },
		func(c *Config) { c.SramMHz = 0 },
		func(c *Config) { c.SdramBanks = 0 },
		func(c *Config) { c.SramPipeNs = -1 },
		func(c *Config) { c.DVSPenalty = -1 },
		func(c *Config) { c.BatchCycles = 0 },
		func(c *Config) { c.Power.MEInstr = -1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestMemControllerFCFSAndQueueing(t *testing.T) {
	var k sim.Kernel
	mc := newMemController(&k, "test", func(r memRequest) sim.Time {
		return sim.Time(r.words) * 100
	})
	var done []int
	for i := 1; i <= 3; i++ {
		i := i
		mc.request(memRequest{words: int64(i), done: func() { done = append(done, i) }})
	}
	k.Run()
	if !reflect.DeepEqual(done, []int{1, 2, 3}) {
		t.Fatalf("completion order = %v", done)
	}
	// Occupancies serialize: 100 + 200 + 300.
	if k.Now() != 600 {
		t.Fatalf("final time = %v, want 600", k.Now())
	}
	reqs, words, maxQ := mc.stats()
	if reqs != 3 || words != 6 || maxQ < 1 {
		t.Fatalf("stats = %d, %d, %d", reqs, words, maxQ)
	}
}

// A controller whose queue never drains keeps FCFS order and reuses its
// backing array instead of growing past the served prefix.
func TestMemControllerQueueNeverDrains(t *testing.T) {
	var k sim.Kernel
	mc := newMemController(&k, "test", func(memRequest) sim.Time { return 10 })
	var done []int
	next := 0
	var issue func()
	issue = func() {
		next++
		n := next
		mc.request(memRequest{words: 1, done: func() {
			done = append(done, n)
			if next < 1000 {
				issue()
			}
		}})
	}
	for i := 0; i < 4; i++ {
		issue()
	}
	k.Run()
	if len(done) != 1000 {
		t.Fatalf("completed %d requests, want 1000", len(done))
	}
	for i, n := range done {
		if n != i+1 {
			t.Fatalf("completion %d was request %d: not FCFS", i, n)
		}
	}
	if c := cap(mc.queue); c > 8 {
		t.Fatalf("queue capacity grew to %d with at most 4 requests in flight", c)
	}
}

func TestSdramRowModel(t *testing.T) {
	tm := newSdramTiming(4, 50, 10)
	// First access to a row: miss.
	t1 := tm.serviceTime(memRequest{addr: 0, words: 4})
	if t1 != sim.Time(90*sim.Nanosecond) {
		t.Fatalf("row-miss time = %v, want 90ns", t1)
	}
	// Same bank (addr>>3 ≡ 0 mod 4), same row: hit.
	t2 := tm.serviceTime(memRequest{addr: 32, words: 4})
	if t2 != sim.Time(40*sim.Nanosecond) {
		t.Fatalf("row-hit time = %v, want 40ns", t2)
	}
	// Different row, same bank: miss again.
	t3 := tm.serviceTime(memRequest{addr: 1 << 12, words: 4})
	if t3 != sim.Time(90*sim.Nanosecond) {
		t.Fatalf("row-conflict time = %v, want 90ns", t3)
	}
	if tm.hits != 1 || tm.misses != 2 {
		t.Fatalf("hits/misses = %d/%d", tm.hits, tm.misses)
	}
}

// buildChip assembles a default chip running the given benchmark.
func buildChip(t testing.TB, cfg Config, bench workload.Name, sink trace.Sink) (*sim.Kernel, *Chip) {
	t.Helper()
	progs, err := workload.Programs(bench, workload.DefaultParams(), cfg.NumMEs, cfg.RxMEs)
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	chip, err := New(cfg, k, progs, sink)
	if err != nil {
		t.Fatal(err)
	}
	return k, chip
}

func genTraffic(t testing.TB, mbps float64, dur sim.Time, seed int64) []traffic.Packet {
	t.Helper()
	g, err := traffic.NewGenerator(traffic.Config{MeanMbps: mbps, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g.GenerateUntil(dur)
}

func TestNewErrors(t *testing.T) {
	k := &sim.Kernel{}
	cfg := DefaultConfig()
	progs, _ := workload.Programs(workload.IPFwdr, workload.DefaultParams(), 6, 4)
	if _, err := New(cfg, k, progs[:3], nil); err == nil {
		t.Error("wrong program count accepted")
	}
	bad := make([]*isa.Program, 6)
	copy(bad, progs)
	bad[2] = nil
	if _, err := New(cfg, k, bad, nil); err == nil {
		t.Error("nil program accepted")
	}
	cfg.NumMEs = 0
	if _, err := New(cfg, k, progs, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEndToEndForwarding(t *testing.T) {
	cfg := DefaultConfig()
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.IPFwdr, &col)
	dur := 2 * sim.Millisecond
	pkts := genTraffic(t, 900, dur, 1)
	if err := chip.Inject(pkts); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(dur)
	st := chip.Snapshot()
	if st.PktsArrived != uint64(len(pkts)) {
		t.Fatalf("arrived %d of %d", st.PktsArrived, len(pkts))
	}
	if st.PktsSent == 0 {
		t.Fatal("no packets forwarded")
	}
	// Nearly everything should get through at 900 Mbps with no DVS.
	if frac := float64(st.PktsSent) / float64(st.PktsArrived); frac < 0.9 {
		t.Fatalf("forwarded only %.1f%% of packets (dropped %d, fifo high water %d)",
			frac*100, st.PktsDropped, st.FifoHighWater)
	}
	if st.EnergyUJ <= 0 || st.AvgPowerW <= 0.2 || st.AvgPowerW > 3 {
		t.Fatalf("implausible power: %v W (energy %v uJ)", st.AvgPowerW, st.EnergyUJ)
	}
	// Trace contents: fifo and forward events with monotone annotations.
	var fifo, fwd int
	var lastCycle uint64
	var lastEnergy float64
	for _, ev := range col.Events {
		if ev.Cycle < lastCycle && false {
			t.Fatal("cycle went backwards")
		}
		lastCycle = ev.Cycle
		if ev.Energy+1e-9 < lastEnergy {
			t.Fatalf("energy decreased: %v -> %v", lastEnergy, ev.Energy)
		}
		lastEnergy = ev.Energy
		switch ev.Name {
		case trace.EvFifo:
			fifo++
		case trace.EvForward:
			fwd++
		}
	}
	if fifo == 0 || fwd == 0 {
		t.Fatalf("trace has %d fifo, %d forward events", fifo, fwd)
	}
	if uint64(fwd) != st.PktsSent {
		t.Fatalf("forward events %d != sent %d", fwd, st.PktsSent)
	}
	if chip.SinkErr() != nil {
		t.Fatal(chip.SinkErr())
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() []trace.Event {
		cfg := DefaultConfig()
		var col trace.Collector
		k, chip := buildChip(t, cfg, workload.URL, &col)
		dur := 1 * sim.Millisecond
		chip.Inject(genTraffic(t, 700, dur, 42))
		k.RunUntil(dur)
		return col.Events
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and config produced different traces")
	}
}

func TestPollingKeepsMEsBusyAtZeroTraffic(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
	k.RunUntil(1 * sim.Millisecond)
	st := chip.Snapshot()
	// No packets at all: the paper's point is that MEs poll, not idle.
	for i, f := range st.MEIdleFrac {
		if f > 0.02 {
			t.Errorf("ME%d idle fraction %v at zero traffic; polling should keep it busy", i, f)
		}
	}
	if st.MEInstr[0] == 0 {
		t.Error("RX ME executed nothing")
	}
	// And substantial energy is burned doing so (no free idling).
	if st.AvgPowerW < 0.5 {
		t.Errorf("zero-traffic power %v W implausibly low for polling MEs", st.AvgPowerW)
	}
}

func TestRFIFOOverflowDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RFIFODepth = 2
	// Slow the MEs to near standstill so the FIFO cannot drain.
	cfg.MEVF = power.VF{MHz: 1, Volts: 1.1}
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.MD4, &col)
	dur := 500 * sim.Microsecond
	chip.Inject(genTraffic(t, 1200, dur, 3))
	k.RunUntil(dur)
	st := chip.Snapshot()
	if st.PktsDropped == 0 {
		t.Fatal("no drops despite tiny RFIFO and stalled MEs")
	}
	var drops int
	for _, ev := range col.Events {
		if ev.Name == trace.EvDrop {
			drops++
		}
	}
	if uint64(drops) != st.PktsDropped {
		t.Fatalf("drop events %d != counter %d", drops, st.PktsDropped)
	}
}

func TestSetAllVFStallsAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.NAT, nil)
	dur := 400 * sim.Microsecond
	chip.Inject(genTraffic(t, 600, dur, 5))
	k.RunUntil(100 * sim.Microsecond)
	before := chip.Snapshot().MEInstr[0]
	low := power.VF{MHz: 400, Volts: 1.1}
	chip.SetAllVF(low)
	// During the 10 µs penalty no instructions may issue (check one
	// picosecond before the stall expires; the boundary event is free to
	// run at expiry).
	k.RunUntil(100*sim.Microsecond + cfg.DVSPenalty - 1)
	during := chip.Snapshot().MEInstr[0]
	if during != before {
		t.Fatalf("ME0 executed %d instructions during the stall", during-before)
	}
	k.RunUntil(dur)
	st := chip.Snapshot()
	if st.MEInstr[0] == during {
		t.Fatal("ME0 never resumed after the stall")
	}
	if chip.MEVF(0) != low {
		t.Fatalf("VF = %v, want %v", chip.MEVF(0), low)
	}
	if st.MEStallFrac[0] <= 0 {
		t.Fatal("no stall time accounted")
	}
	// Stall must not be booked as idle.
	if st.MEIdleFrac[0] > 0.2 {
		t.Errorf("idle fraction %v suspiciously high; stall leaking into idle?", st.MEIdleFrac[0])
	}
}

func TestSetMEVFIndependent(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.NAT, nil)
	k.RunUntil(50 * sim.Microsecond)
	low := power.VF{MHz: 450, Volts: 1.15}
	chip.SetMEVF(2, low)
	k.RunUntil(60 * sim.Microsecond)
	if chip.MEVF(2) != low {
		t.Fatalf("ME2 VF = %v", chip.MEVF(2))
	}
	if chip.MEVF(1) != cfg.MEVF {
		t.Fatalf("ME1 VF changed: %v", chip.MEVF(1))
	}
	if chip.ME(1).StallTime() != 0 {
		t.Fatal("ME1 stalled on ME2's transition")
	}
}

func TestLowerFrequencySlowsExecution(t *testing.T) {
	count := func(vf power.VF) uint64 {
		cfg := DefaultConfig()
		cfg.MEVF = vf
		k, chip := buildChip(t, cfg, workload.NAT, nil)
		k.RunUntil(200 * sim.Microsecond)
		return chip.Snapshot().MEInstr[0]
	}
	fast := count(power.VF{MHz: 600, Volts: 1.3})
	slow := count(power.VF{MHz: 400, Volts: 1.1})
	ratio := float64(slow) / float64(fast)
	if ratio < 0.60 || ratio > 0.73 {
		t.Fatalf("400/600 MHz instruction ratio = %v, want ~0.67", ratio)
	}
}

func TestLowerVoltageReducesPower(t *testing.T) {
	run := func(vf power.VF) float64 {
		cfg := DefaultConfig()
		cfg.MEVF = vf
		k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
		dur := 1 * sim.Millisecond
		chip.Inject(genTraffic(t, 700, dur, 9))
		k.RunUntil(dur)
		return chip.Snapshot().AvgPowerW
	}
	high := run(power.VF{MHz: 600, Volts: 1.3})
	low := run(power.VF{MHz: 400, Volts: 1.1})
	if low >= high {
		t.Fatalf("low-VF power %v W >= high-VF %v W", low, high)
	}
	if low/high > 0.85 {
		t.Fatalf("power ratio %v, want a clear reduction", low/high)
	}
}

func TestTrafficBitsMonitorsOfferedLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MonitorOverhead = true
	k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
	dur := 1 * sim.Millisecond
	pkts := genTraffic(t, 800, dur, 7)
	chip.Inject(pkts)
	k.RunUntil(dur)
	var want uint64
	for _, p := range pkts {
		want += p.Bits()
	}
	if got := chip.TrafficBits(); got != want {
		t.Fatalf("TrafficBits = %d, want %d", got, want)
	}
	// Monitor overhead must stay under the paper's 1%.
	if f := chip.Meter().MonitorFraction(); f <= 0 || f >= 0.01 {
		t.Fatalf("monitor energy fraction = %v", f)
	}
}

func TestIdleSampling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleSampleWindow = 50 * sim.Microsecond
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.IPFwdr, &col)
	dur := 500 * sim.Microsecond
	chip.Inject(genTraffic(t, 900, dur, 2))
	k.RunUntil(dur)
	chip.StopTickers()
	var idleEvents int
	for _, ev := range col.Events {
		if ev.Name == trace.MEEvent(0, trace.EvIdle) {
			idleEvents++
			frac, ok := ev.Extra["idle_frac"]
			if !ok || frac < 0 || frac > 1 {
				t.Fatalf("bad idle_frac %v, %v", frac, ok)
			}
		}
	}
	if idleEvents < 9 || idleEvents > 10 {
		t.Fatalf("idle events for ME0 = %d, want ~10", idleEvents)
	}
}

func TestInjectRejectsBadPort(t *testing.T) {
	cfg := DefaultConfig()
	_, chip := buildChip(t, cfg, workload.IPFwdr, nil)
	err := chip.Inject([]traffic.Packet{{Port: 99, Size: 100}})
	if err == nil {
		t.Fatal("bad port accepted")
	}
}

func TestPipelineEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EmitPipeline = true
	var count trace.CountingSink
	k, chip := buildChip(t, cfg, workload.NAT, &count)
	k.RunUntil(50 * sim.Microsecond)
	_ = chip
	if count.Counts[trace.MEEvent(0, trace.EvPipeline)] == 0 {
		t.Fatal("no pipeline events with EmitPipeline")
	}
}

func TestVFChangeEvents(t *testing.T) {
	cfg := DefaultConfig()
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.NAT, &col)
	k.RunUntil(20 * sim.Microsecond)
	chip.SetAllVF(power.VF{MHz: 550, Volts: 1.25})
	k.RunUntil(40 * sim.Microsecond)
	var n int
	for _, ev := range col.Events {
		if ev.Name == trace.MEEvent(3, trace.EvVFChange) {
			n++
			if mhz := ev.Extra["mhz"]; mhz != 550 {
				t.Fatalf("vfchange mhz = %v", mhz)
			}
		}
	}
	if n != 1 {
		t.Fatalf("vfchange events for ME3 = %d, want 1", n)
	}
}

func TestStatsDerivedRates(t *testing.T) {
	st := Stats{Now: sim.Second, BitsSent: 500e6, BitsArrived: 600e6, PktsArrived: 100, PktsDropped: 10}
	if got := st.SentMbps(); got != 500 {
		t.Errorf("SentMbps = %v", got)
	}
	if got := st.OfferedMbps(); got != 600 {
		t.Errorf("OfferedMbps = %v", got)
	}
	if got := st.LossFrac(); got != 0.1 {
		t.Errorf("LossFrac = %v", got)
	}
	var zero Stats
	if zero.SentMbps() != 0 || zero.LossFrac() != 0 {
		t.Error("zero stats should degrade gracefully")
	}
}

func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		progs, _ := workload.Programs(workload.IPFwdr, workload.DefaultParams(), cfg.NumMEs, cfg.RxMEs)
		k := &sim.Kernel{}
		chip, err := New(cfg, k, progs, nil)
		if err != nil {
			b.Fatal(err)
		}
		dur := 1 * sim.Millisecond
		g, _ := traffic.NewGenerator(traffic.Config{MeanMbps: 900, Seed: int64(i)})
		chip.Inject(g.GenerateUntil(dur))
		k.RunUntil(dur)
	}
}
