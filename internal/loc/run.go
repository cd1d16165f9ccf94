package loc

import (
	"fmt"
	"math"

	"nepdvs/internal/loc/locrt"
	"nepdvs/internal/obs"
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
	"nepdvs/internal/stats"
	"nepdvs/internal/trace"
)

// DistResult is the outcome of running a distribution formula over a trace.
type DistResult struct {
	Op        DistOp
	Hist      *stats.Histogram
	Instances int64
	Skipped   int64
}

// View returns the distribution in the formula's requested view.
func (d *DistResult) View() []float64 {
	switch d.Op {
	case DistHist:
		return d.Hist.Fractions()
	case DistCCDF:
		return d.Hist.CCDF()
	default:
		return d.Hist.CDF()
	}
}

// Render writes the distribution as a two-column table.
func (d *DistResult) Render() string { return locrt.RenderDist(d.Hist, d.Op.String()) }

// Result is the outcome of one formula.
type Result struct {
	Name    string
	Formula *Formula
	Check   *CheckResult // non-nil iff Formula.Kind == KindCheck
	Dist    *DistResult  // non-nil iff Formula.Kind == KindDist
	// WindowPeak is the high-water mark of retained event history (ring
	// instances) this formula forced the runner to hold.
	WindowPeak int64
}

// Summary renders a one-formula report.
func (r *Result) Summary() string { return r.outcome().Summary() }

// outcome is the runtime's view of the result, from which the shared
// renderers build the summary and the report section.
func (r *Result) outcome() *locrt.Outcome {
	o := &locrt.Outcome{Name: r.Name, Source: r.Formula.String(), Check: r.Check, WindowPeak: r.WindowPeak}
	if d := r.Dist; d != nil {
		o.Dist, o.View, o.Instances, o.Skipped = d.Hist, d.Op.String(), d.Instances, d.Skipped
	}
	return o
}

// Runner evaluates a set of compiled formulas over a single pass of a trace.
// It implements trace.Sink so a simulation can feed it live, avoiding trace
// files entirely — or it can be driven from a trace.Source via Run. Each
// formula runs on the shared runtime's streaming evaluator.
type Runner struct {
	formulas []formulaRun
	// byEvent maps event name -> interested formulas.
	byEvent map[string][]*locrt.Evaluator
}

// formulaRun is one formula's evaluator plus what its Result needs.
type formulaRun struct {
	*locrt.Evaluator
	formula *Formula
	hist    *stats.Histogram // nil for checkers
}

// NewRunner prepares a runner for the given compiled formulas. Formula names
// default to f1, f2, ... when empty.
func NewRunner(opts RunnerOptions, compiled ...*Compiled) (*Runner, error) {
	if len(compiled) == 0 {
		return nil, fmt.Errorf("loc: no formulas to run")
	}
	r := &Runner{formulas: make([]formulaRun, len(compiled)), byEvent: make(map[string][]*locrt.Evaluator)}
	for k, c := range compiled {
		f := c.Analysis.Formula
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("f%d", k+1)
		}
		fr := &r.formulas[k]
		fr.formula = f
		var dist locrt.Dist
		if f.Kind == KindDist {
			h, err := stats.NewHistogram(f.Period.Min, f.Period.Max, f.Period.Step)
			if err != nil {
				return nil, fmt.Errorf("loc: formula %s: %v", name, err)
			}
			fr.hist, dist = h, h
		}
		// The statically inferred retention bounds seed the ring capacities.
		sp := runtimeSpec(c, name)
		sp.Analysis.Retention = make(map[string]int64, len(c.Analysis.Windows))
		for ev, w := range c.Analysis.Windows {
			sp.Analysis.Retention[ev] = w.Retention()
		}
		fr.Evaluator = locrt.NewEvaluator(&sp, opts, dist)
		for ev := range c.Analysis.Windows {
			r.byEvent[ev] = append(r.byEvent[ev], fr.Evaluator)
		}
	}
	return r, nil
}

// runtimeSpec lowers a compiled formula to the runtime's Spec under the
// given name, leaving Source and Analysis to the caller.
func runtimeSpec(c *Compiled, name string) locrt.Spec {
	f := c.Analysis.Formula
	sp := locrt.Spec{Name: name, Refs: make([]locrt.Ref, len(c.Analysis.Refs)), LHS: c.LHS, RHS: c.RHS, Rel: f.Rel}
	for k, ref := range c.Analysis.Refs {
		sp.Refs[k] = locrt.Ref{Name: ref.String(), Ann: ref.Ann, Event: ref.Event, Rel: ref.Index.Rel, Off: ref.Index.Offset}
	}
	if f.Kind == KindDist {
		sp.View = f.Dist.String()
		sp.Min, sp.Max, sp.Step = f.Period.Min, f.Period.Max, f.Period.Step
	}
	return sp
}

// Emit implements trace.Sink.
func (r *Runner) Emit(ev *trace.Event) error {
	// trace.Event and locrt.Event share one layout, so this conversion is
	// free.
	e := (*locrt.Event)(ev)
	for _, st := range r.byEvent[ev.Name] {
		if err := st.Emit(e); err != nil {
			return err
		}
	}
	return nil
}

// simTime converts a trace time in microseconds to the recorder's picosecond
// clock. Non-finite times clamp to zero (the recorder would reject them).
func simTime(us float64) sim.Time {
	if math.IsNaN(us) || math.IsInf(us, 0) {
		return 0
	}
	return sim.Time(math.Round(us * float64(sim.Microsecond)))
}

// Results returns the per-formula outcomes. The first formula that failed
// with a runtime error (missing annotation, window overflow) is reported as
// the error.
func (r *Runner) Results() ([]Result, error) {
	out := make([]Result, 0, len(r.formulas))
	for _, fr := range r.formulas {
		if err := fr.Err(); err != nil {
			return nil, err
		}
		o := fr.Outcome()
		res := Result{Name: o.Name, Formula: fr.formula, Check: o.Check, WindowPeak: o.WindowPeak}
		if fr.hist != nil {
			res.Dist = &DistResult{Op: fr.formula.Dist, Hist: fr.hist, Instances: o.Instances, Skipped: o.Skipped}
		}
		out = append(out, res)
	}
	return out, nil
}

// SetSpans attaches a timeline recorder: every retained violation records a
// span covering the window of trace events its references bound plus an
// instant at the moment the instance became checkable, on the "assert"
// track. Must be called before events are emitted.
func (r *Runner) SetSpans(rec *span.Recorder) {
	for _, fr := range r.formulas {
		name := fr.Outcome().Name
		fr.OnRetain = func(i int64, lhs, rhs, minT, maxT float64) {
			args := map[string]float64{"i": float64(i), "lhs": lhs, "rhs": rhs}
			rec.Span("assert", name, "assert", simTime(minT), simTime(maxT), args)
			rec.Instant("assert", name, "assert", simTime(maxT), args)
		}
	}
}

// PublishMetrics registers per-formula evaluation counters and the
// window-retention high-water gauge. Everything published derives from
// simulation state only, so the snapshot stays byte-identical per seed.
func (r *Runner) PublishMetrics(reg *obs.Registry) {
	for _, fr := range r.formulas {
		o := fr.Outcome()
		prefix := "loc_" + o.Name + "_"
		if c := o.Check; c != nil {
			reg.Counter(prefix + "instances_total").Add(uint64(c.Instances))
			reg.Counter(prefix + "violations_total").Add(uint64(c.Total))
			reg.Counter(prefix + "indeterminate_total").Add(uint64(c.Indeterminate))
			reg.Counter(prefix + "skipped_total").Add(uint64(c.Skipped))
		} else {
			reg.Counter(prefix + "instances_total").Add(uint64(o.Instances))
			reg.Counter(prefix + "skipped_total").Add(uint64(o.Skipped))
		}
		reg.Gauge(prefix + "window_peak").SetMax(float64(o.WindowPeak))
	}
}

// Run drives a trace source to exhaustion through a new runner and returns
// the per-formula results.
func Run(src trace.Source, opts RunnerOptions, compiled ...*Compiled) ([]Result, error) {
	r, err := NewRunner(opts, compiled...)
	if err != nil {
		return nil, err
	}
	for {
		ev, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := r.Emit(&ev); err != nil {
			return nil, err
		}
	}
	return r.Results()
}

// RunFormulas parses, compiles and runs formula source text against a trace
// source — the one-call "generate the analyzer from the assertion" flow.
func RunFormulas(formulaSrc string, src trace.Source, schema map[string]bool) ([]Result, error) {
	fs, err := ParseFile(formulaSrc)
	if err != nil {
		return nil, err
	}
	compiled := make([]*Compiled, len(fs))
	for k, f := range fs {
		c, err := Compile(f, schema)
		if err != nil {
			return nil, err
		}
		compiled[k] = c
	}
	return Run(src, RunnerOptions{}, compiled...)
}
