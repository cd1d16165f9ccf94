package main

import (
	"fmt"
	"maps"
	"os"
	"sort"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// exploreWL is the `dvsexplore all` path: experiments.RunAll regenerates
// every paper table, figure and ablation with Parallelism = nproc. One
// operation is one complete RunAll; its reports and charts are digested in
// memory (on-disk artifacts are not the subject).
type exploreWL struct {
	b    *bench
	opts experiments.Options
	ops  int64 // operations run so far; selects the next realization
}

// options derives the exploration inputs of operation k: a run steps
// through the ExploreSeeds recorded traffic realizations in turn, starting
// at the one the workload seed selects, so every run's median covers the
// same mix of inputs.
func (w *exploreWL) options(k int64) experiments.Options {
	return experiments.Options{
		Cycles:      w.b.sizes.ExploreCycles,
		Parallelism: w.b.nproc,
		Seed:        int64(1 + mod(w.b.seed+k, w.b.sizes.ExploreSeeds)),
	}
}

// setup derives the first inputs and runs Figure 11 (every benchmark
// program at every traffic level) at the measured size, so lazy
// initialisation and heap growth are paid before timing.
func (w *exploreWL) setup(*probe) error {
	w.ops = 0
	w.opts = w.options(0)
	_, err := experiments.Run("fig11", w.opts)
	return err
}

// digests runs one exploration and digests its reports.
func (w *exploreWL) digests() (map[string]string, error) {
	reports, err := experiments.RunAll(w.opts)
	if err != nil {
		return nil, err
	}
	return reportDigests(reports)
}

// reportDigests keys one digest per report and per chart by report
// position and ID (and chart index).
func reportDigests(reports []experiments.Report) (map[string]string, error) {
	out := map[string]string{}
	for i, r := range reports {
		var assertions []byte
		if r.Assertions != nil {
			b, err := r.Assertions.JSON()
			if err != nil {
				return nil, err
			}
			assertions = b
		}
		key := fmt.Sprintf("%d:%s", i, r.ID)
		out[key] = sha([]byte(r.ID), []byte(r.Title), []byte(r.Body), assertions)
		for k, c := range r.Charts {
			out[fmt.Sprintf("%s/chart%d", key, k)] = sha([]byte(c.Name), []byte(c.SVG))
		}
	}
	return out, nil
}

func (w *exploreWL) expected() map[string]string {
	return w.b.expect.Explore[sizeKey(w.opts.Cycles, int(w.opts.Seed))]
}

// check reports whether got matches the recorded digests exactly.
func (w *exploreWL) check(got map[string]string) bool {
	want := w.expected()
	if len(want) == 0 || len(got) != len(want) {
		return false
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			fmt.Fprintf(os.Stderr, "explore: report %s digest %s, recorded %s\n", k, got[k], want[k])
			return false
		}
	}
	return true
}

func (w *exploreWL) measure(window time.Duration, p *probe) measurement {
	if p != nil {
		p.simBegin()
	}
	var m measurement
	start := now()
	for m.attempted == 0 || now().Sub(start) < window {
		w.opts = w.options(w.ops)
		w.ops++
		opts := w.opts
		if p != nil {
			opts.Metrics = p.reg
		}
		t := now()
		reports, err := experiments.RunAll(opts)
		ms := float64(sinceNs(t)) / 1e6
		m.attempted++
		ok := err == nil
		if ok {
			d, derr := reportDigests(reports)
			ok = derr == nil && w.check(d)
		} else {
			fmt.Fprintln(os.Stderr, "explore:", err)
		}
		if !ok {
			m.failed++
			continue
		}
		m.opMs = append(m.opMs, ms)
		m.doneNs = append(m.doneNs, sinceNs(start))
	}
	if p != nil {
		p.simEnd(m.attempted)
	}
	return m
}

// repConfig is a representative run of the exploration (the Figure 6
// sweep's ipfwdr, high-traffic baseline) for the per-run probes.
func (w *exploreWL) repConfig() (core.RunConfig, error) {
	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, w.opts.Seed)
	if err != nil {
		return cfg, err
	}
	cfg.Cycles = w.opts.Cycles
	cfg.Policy = core.TDVSPolicy(1000, 40000)
	cfg.Formulas = core.StandardFormulas()
	return cfg, nil
}

func (w *exploreWL) layers(p *probe) (map[string]float64, error) {
	cfg, err := w.repConfig()
	if err != nil {
		return nil, err
	}
	gen, err := sampleGenMs(cfg)
	if err != nil {
		return nil, err
	}
	key, err := sampleRunKeyUs([]core.RunConfig{cfg})
	if err != nil {
		return nil, err
	}
	out := p.simLayers(gen, w.b.nproc)
	out["core.runkey_us"] = key
	traced, err := traceProbe(cfg)
	if err != nil {
		return nil, err
	}
	served, err := serveProbe(w.b)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, traced)
	maps.Copy(out, served)
	return out, nil
}

func (w *exploreWL) close() {}
