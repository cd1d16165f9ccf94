// Command perfbench is the repository benchmark. It drives the exploration
// stack through its public packages on one workload per process and prints,
// as the last line of standard output, one JSON object with the operations
// attempted and failed and the metrics: the end-to-end metrics by default,
// the per-layer metrics with --trace 1. README.md defines every metric and
// the end-to-end metric each layer metric should move.
//
//	go run ./perfbench --workload explore --seed 1 --seconds 20 --trace 0
//
// Outputs are checked against the SHA-256 digests recorded in digests.json;
// an operation whose output differs counts as failed. After an intended
// change to simulated behaviour, re-record them with
//
//	go run ./perfbench --record perfbench/digests.json
package main

import (
	"cmp"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) //nepvet:allow det/exit the benchmark's entry point reports its status
}

//go:embed digests.json
var recordedDigests []byte

// sizes fixes how much work each workload's inputs carry. The defaults are
// the benchmark; tests shrink them.
type sizes struct {
	Setups int // set-up repetitions per run; setup_s is their median

	ExploreCycles int64 // cycles per simulation of experiments.RunAll
	ExploreSeeds  int   // traffic realizations the seed selects among

	ServeCycles  int64 // cycles per sweep point
	ServeHot     int   // sweeps warmed in set-up and re-requested as cache hits
	ServeEntries int   // recorded sweep configs the hot pool and cold requests draw from
}

var defaultSizes = sizes{
	Setups:        5,
	ExploreCycles: 500_000,
	ExploreSeeds:  4,
	ServeCycles:   500_000,
	ServeHot:      8,
	ServeEntries:  4096,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every reported metric with its unit, in the
// order of BENCHMARK.json; the smoke test holds the two in sync.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"sim.events_dispatched", "events/run"},
		{"sim.heap_pushes", "pushes/run"},
		{"sim.heap_high_water", "events"},
		{"sim.ns_per_event", "ns"},
		{"npu.instr_retired", "instrs/run"},
		{"npu.poll_ops", "polls/run"},
		{"npu.mem_requests", "requests/run"},
		{"npu.ns_per_instr", "ns"},
		{"go.allocs_per_event", "allocs"},
		{"go.bytes_per_packet", "B"},
		{"traffic.gen_ms", "ms"},
		{"policy.windows", "windows/run"},
		{"policy.transitions", "count/run"},
		{"core.run_busy_s", "s"},
		{"core.parallel_util", "ratio"},
		{"core.runkey_us", "us"},
		{"trace.write_ns_per_event", "ns"},
		{"trace.bytes_per_event", "B"},
		{"trace.read_ns_per_event", "ns"},
		{"loc.eval_ns_per_event", "ns"},
		{"loc.instances", "count/op"},
		{"loc.violations", "count/op"},
		{"cache.lookup_us_p50", "us"},
		{"cache.store_us_p50", "us"},
		{"cache.hit_ratio", "ratio"},
		{"jobs.queue_wait_ms_p50", "ms"},
		{"jobs.exec_ms_p50", "ms"},
		{"jobs.artifact_ms_p50", "ms"},
		{"jobs.deduped", "count"},
		{"server.submit_ms_p50", "ms"},
		{"server.artifact_get_ms_p50", "ms"},
		{"serve.hit_p50_ms", "ms"},
		{"serve.hit_p90_ms", "ms"},
		{"serve.hit_samples", "count"},
		{"serve.miss_p50_ms", "ms"},
		{"serve.miss_samples", "count"},
	}
	for _, pkg := range profPackages {
		m = append(m, struct{ name, unit string }{"prof.share." + pkg, "ratio"})
	}
	return append(m, struct{ name, unit string }{"tracing_overhead", "ratio"})
}()

// bench is one benchmark invocation.
type bench struct {
	sizes  sizes
	seed   int64
	window time.Duration
	traced bool
	expect *digestBook
	// workDir holds the run cache of the serve workload; it must lie inside
	// the checkout the benchmark runs from.
	workDir string
	nproc   int
}

// measurement is what one measuring window observed.
type measurement struct {
	opMs      []float64 // latency of every completed operation
	doneNs    []int64   // completion time of each, from the window's start, ascending
	attempted int
	failed    int
	// rssMB, when set, is the peak RSS the workload read at a fixed amount
	// of work into the window; peak_rss_mb reports it in place of the
	// process's high-water mark at the end.
	rssMB float64
}

// runner is one of the benchmark's user paths.
type runner interface {
	// setup builds the workload's inputs (and, for serve, its stack),
	// replacing what a previous setup built. p is non-nil on the traced
	// run's last setup.
	setup(p *probe) error
	// measure runs operations until the window has passed. p is non-nil
	// while tracing.
	measure(window time.Duration, p *probe) measurement
	// layers reports the workload's per-layer metrics after a traced
	// measure.
	layers(p *probe) (map[string]float64, error)
	close()
}

func newWorkload(name string, b *bench) (runner, error) {
	switch name {
	case "explore":
		return &exploreWL{b: b}, nil
	case "serve-sweep":
		return &serveWL{b: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have explore, serve-sweep)", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: explore or serve-sweep")
	seed := fs.Int64("seed", 1, "workload seed; selects the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measuring window")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	record := fs.String("record", "", "recompute every recorded output digest at the default sizes and write them to this file")
	workDir := fs.String("workdir", ".bench_build/work", "directory for the serve workload's run cache")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	b := &bench{sizes: defaultSizes, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, workDir: *workDir, nproc: runtime.GOMAXPROCS(0)}
	if *record != "" {
		if err := recordDigests(b, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	book, err := parseDigests(recordedDigests)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.expect = book
	res, err := execute(b, *name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute sets the workload up Setups times, measures it, and renders the
// result. A traced run first measures a third of the window untraced, so
// tracing_overhead compares operation latency with and without tracing.
func execute(b *bench, name string) (*result, error) {
	if b.window <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	w, err := newWorkload(name, b)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return nil, err
	}
	var p *probe
	if b.traced {
		p = newProbe()
	}
	var setupS []float64
	for i := 0; i < b.sizes.Setups; i++ {
		var sp *probe
		if i == b.sizes.Setups-1 {
			sp = p
		}
		start := now()
		if err := w.setup(sp); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setupS = append(setupS, float64(sinceNs(start))/1e9)
	}
	res := &result{Metrics: map[string]metric{}}
	if !b.traced {
		m := w.measure(b.window, nil)
		res.Attempted, res.Failed = m.attempted, m.failed
		vals := map[string]float64{
			"setup_s":     median(setupS),
			"peak_rss_mb": cmp.Or(m.rssMB, peakRSSMB()),
			"op_p50_ms":   median(m.opMs),
			"ops_per_s":   throughput(m.doneNs),
		}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
		}
	} else {
		base := w.measure(b.window/3, nil)
		prof, err := startCPUProfile()
		if err != nil {
			return nil, err
		}
		m := w.measure(b.window-b.window/3, p)
		shares, err := prof.stop()
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = base.attempted+m.attempted, base.failed+m.failed
		vals, err := w.layers(p)
		if err != nil {
			return nil, err
		}
		maps.Copy(vals, shares)
		vals["tracing_overhead"] = ratio(median(m.opMs), median(base.opMs))
		for _, e := range perLayer {
			res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// mod is the non-negative remainder, so negative seeds select inputs too.
func mod(seed int64, n int) int {
	r := seed % int64(n)
	if r < 0 {
		r += int64(n)
	}
	return int(r)
}
