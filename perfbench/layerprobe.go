package main

import (
	"bytes"
	"encoding/json"

	"nepdvs/internal/core"
	"nepdvs/internal/loc"
	"nepdvs/internal/server"
	"nepdvs/internal/trace"
)

// A workload's operation does not exercise every layer: explore neither
// stores traces nor serves sweeps, serve-sweep reads no trace. So that
// every per-layer metric is a measurement on every workload, the traced
// run measures those layers afterwards with a small probe on the
// workload's own inputs. Probe values give the layer's cost on that input,
// not a share of the workload's operation.

// compileFormulas parses and compiles LOC source against the engine's
// trace schema.
func compileFormulas(src string) ([]*loc.Compiled, error) {
	fs, err := loc.ParseFile(src)
	if err != nil {
		return nil, err
	}
	compiled := make([]*loc.Compiled, len(fs))
	for i, f := range fs {
		if compiled[i], err = loc.Compile(f, core.TraceSchema()); err != nil {
			return nil, err
		}
	}
	return compiled, nil
}

// traceProbe records one run of cfg as an NPT1 trace through a timed
// writer, then replays it five times through cfg's formulas with a timed
// reader.
func traceProbe(cfg core.RunConfig) (map[string]float64, error) {
	compiled, err := compileFormulas(cfg.Formulas)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	ws := &timedSink{inner: bw}
	cfg.ExtraSink = ws
	cfg.Metrics = nil
	if _, err := core.Run(cfg); err != nil {
		return nil, err
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	var readNs, passNs, events int64
	for i := 0; i < 5; i++ {
		src, err := trace.OpenSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		ts := &timedSource{inner: src}
		t := now()
		if _, err := loc.Run(ts, loc.RunnerOptions{}, compiled...); err != nil {
			return nil, err
		}
		passNs += sinceNs(t)
		readNs += ts.ns
		events += ts.events
	}
	return map[string]float64{
		"trace.write_ns_per_event": ratio(float64(ws.ns), float64(ws.events)),
		"trace.bytes_per_event":    ratio(float64(buf.Len()), float64(ws.events)),
		"trace.read_ns_per_event":  ratio(float64(readNs), float64(events)),
		"loc.eval_ns_per_event":    ratio(float64(passNs-readNs), float64(events)),
	}, nil
}

// serveProbe serves one serve-sweep entry (the one the seed selects)
// through an in-process dvsd once cold and then 100 times hot, enough for
// the hit p90 to have ten samples beyond it.
func serveProbe(b *bench) (map[string]float64, error) {
	cfg, err := serveEntryConfig(mod(b.seed, b.sizes.ServeEntries), b.sizes.ServeCycles)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(server.SweepRequest{Config: cfg, Thresholds: serveThresholds,
		Windows: serveWindows, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	st, err := newStack(b.workDir, b.nproc)
	if err != nil {
		return nil, err
	}
	defer st.close()
	p := newProbe()
	w := &serveWL{b: b, st: st, tc: &timedCache{inner: st.store, p: p}}
	core.SetRunCache(w.tc)
	var reqs []servedReq
	for i := 0; i <= 100; i++ {
		t := now()
		_, rs, err := st.sweep(body)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, servedReq{ms: float64(sinceNs(t)) / 1e6, cold: i == 0, ok: true, st: rs})
	}
	w.record(p, reqs)
	return p.values, nil
}
