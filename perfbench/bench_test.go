package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// tinySizes shrink every workload to a smoke-test budget. RunAll needs
// enough cycles for every figure to have data, so explore stays the
// costliest part.
var tinySizes = sizes{
	Setups:        1,
	ExploreCycles: 400_000,
	ExploreSeeds:  1,
	ServeCycles:   50_000,
	ServeHot:      2,
	ServeEntries:  96,
}

var workloadNames = []string{"explore", "serve-sweep"}

var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

var (
	tinyOnce sync.Once
	tinyBook *digestBook
	tinyErr  error
)

// tinyDigests records the tiny-size outputs once per test binary.
func tinyDigests(t *testing.T) *digestBook {
	t.Helper()
	tinyOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-record-")
		if err != nil {
			tinyErr = err
			return
		}
		defer os.RemoveAll(dir)
		tinyBook, tinyErr = computeDigests(&bench{sizes: tinySizes, seed: 1, workDir: dir, nproc: 2})
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyBook
}

// tinyBench is a bench with a short window: one exploration and enough sweep requests that the serve loop reaches its cold
// phase in both halves of a traced run.
func tinyBench(t *testing.T, book *digestBook, traced bool) *bench {
	return &bench{sizes: tinySizes, seed: 1, window: 150 * time.Millisecond, traced: traced,
		expect: book, workDir: t.TempDir(), nproc: 2}
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileInSync pins the metric lists and workload names the
// program emits to the ones BENCHMARK.json declares, in order.
func TestBenchmarkFileInSync(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
		}
	}
}

func metricNames(r *result) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func declaredNames(ms []struct{ name, unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload once at tiny size, untraced and
// traced, and checks the outputs verify and exactly the declared metrics
// come out.
func TestWorkloadsSmoke(t *testing.T) {
	book := tinyDigests(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := execute(tinyBench(t, book, traced), name)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := declaredNames(endToEnd)
			if traced {
				want = declaredNames(perLayer)
			}
			got := metricNames(res)
			if len(got) != len(want) {
				t.Fatalf("%s (traced %v): metrics %v, want %v", name, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s (traced %v): metrics %v, want %v", name, traced, got, want)
				}
			}
			// Every time is measured on every workload: a layer the
			// operation skips is probed, never reported as a constant 0.
			for _, m := range append(endToEnd, perLayer...) {
				v, ok := res.Metrics[m.name]
				if ok && (!traced || timeUnits[m.unit]) && v.Value <= 0 {
					t.Errorf("%s (traced %v): %s = %v, want > 0", name, traced, m.name, v.Value)
				}
			}
		}
	}
}

// TestCorruptDigestFails is the red test: with one recorded digest
// corrupted, the operations that produce that output count as failed and
// the run reports itself incorrect rather than crashing.
func TestCorruptDigestFails(t *testing.T) {
	good := tinyDigests(t)
	corrupt := func(mutate func(b *digestBook)) *digestBook {
		raw, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parseDigests(raw)
		if err != nil {
			t.Fatal(err)
		}
		mutate(b)
		return b
	}
	flip := func(d string) string {
		if d[0] == '0' {
			return "1" + d[1:]
		}
		return "0" + d[1:]
	}
	books := map[string]*digestBook{
		"explore": corrupt(func(b *digestBook) {
			for _, reports := range b.Explore {
				reports["0:fig1"] = flip(reports["0:fig1"])
			}
		}),
		// Every entry, so both the hot pool and the cold requests disagree.
		"serve-sweep": corrupt(func(b *digestBook) {
			for _, ds := range b.Serve {
				for i := range ds {
					ds[i] = flip(ds[i])
				}
			}
		}),
	}
	for _, name := range workloadNames {
		res, err := execute(tinyBench(t, books[name], false), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s with a corrupted digest: correct %v, %d of %d failed; want every operation failed",
				name, res.Correct, res.Failed, res.Attempted)
		}
	}
}
