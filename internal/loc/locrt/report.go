package locrt

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Binding is one reference slot's provenance for a particular formula
// instance: which event instance bound the value, and the trace coordinates
// (cycle, time) of that event. A violation's witness is one Binding per
// reference slot, in slot (first-appearance) order.
type Binding struct {
	Ref   string  `json:"ref"`   // source form, e.g. "cycle(deq[i-1])"
	Event string  `json:"event"` // event name
	Ann   string  `json:"ann"`   // annotation name
	Index int64   `json:"index"` // resolved instance number of Event
	Value float64 `json:"value"` // the annotation value that entered the evaluation
	Cycle float64 `json:"cycle"` // trace cycle of the bound event
	Time  float64 `json:"time"`  // trace time of the bound event (µs)
}

func (b Binding) String() string {
	return fmt.Sprintf("%s = %g (%s[%d] cycle=%g t=%gus)", b.Ref, b.Value, b.Event, b.Index, b.Cycle, b.Time)
}

// Violation records one failing instance of a checker formula, with the
// witness that explains it.
type Violation struct {
	Instance int64   `json:"i"`
	LHS      float64 `json:"lhs"`
	RHS      float64 `json:"rhs"`
	// Time is the simulation time (µs) at which the instance became
	// checkable: the latest trace event its references bound.
	Time float64 `json:"time"`
	// Witness holds one binding per reference slot (nil when provenance was
	// not captured, e.g. for violations past the retention cap).
	Witness []Binding `json:"witness,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("i=%d: lhs=%g rhs=%g", v.Instance, v.LHS, v.RHS)
}

// DensityBins bounds the Density bin count; the bin width doubles (folding
// adjacent bins) whenever a violation lands past the last slot.
const DensityBins = 64

// Density is a constant-memory violation-count series over simulation time:
// Counts[k] covers [k·WidthUS, (k+1)·WidthUS) microseconds from t = 0. It
// starts with 1 µs bins and doubles the width as needed, so its layout is a
// pure function of the violation times.
type Density struct {
	WidthUS float64 `json:"width_us"`
	Counts  []int64 `json:"counts"`
}

// Add records one violation at time t (µs). Non-finite or negative times
// clamp to bin zero so adversarial annotation values cannot force unbounded
// growth.
func (d *Density) Add(t float64) {
	if d.WidthUS == 0 {
		d.WidthUS = 1
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		t = 0
	}
	for t >= d.WidthUS*DensityBins {
		folded := make([]int64, (len(d.Counts)+1)/2)
		for k, c := range d.Counts {
			folded[k/2] += c
		}
		d.Counts = folded
		d.WidthUS *= 2
	}
	k := int(t / d.WidthUS)
	for len(d.Counts) <= k {
		d.Counts = append(d.Counts, 0)
	}
	d.Counts[k]++
}

// Total returns the number of recorded violations.
func (d *Density) Total() int64 {
	var n int64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// CheckResult is the outcome of running a checker formula over a trace.
type CheckResult struct {
	Instances     int64 // instances evaluated
	Skipped       int64 // instances skipped because an index was negative
	Indeterminate int64 // instances where a NaN reached the comparison
	Total         int64 // total violations
	Violations    []Violation
	// Worst is the violation with the largest margin by which the relation
	// failed, tracked across every violation — including those past the
	// retention cap. Ties keep the earliest.
	Worst *Violation `json:"worst,omitempty"`
	// Density bins every violation (retained or not) by its sim time.
	Density *Density `json:"density,omitempty"`
}

// Passed reports whether the assertion held on every evaluated instance.
func (c *CheckResult) Passed() bool { return c.Total == 0 && c.Indeterminate == 0 }

// String renders the verdict line, up to ten retained violations with their
// witness bindings, and an exact remainder count. Total counts every
// violation even when MaxViolations capped retention, so the remainder line
// covers both the display truncation and the retention cap.
func (c *CheckResult) String() string {
	var b strings.Builder
	status := "PASSED"
	if !c.Passed() {
		status = "FAILED"
	}
	fmt.Fprintf(&b, "  %s: %d instances evaluated, %d violations, %d indeterminate, %d skipped\n",
		status, c.Instances, c.Total, c.Indeterminate, c.Skipped)
	shown := len(c.Violations)
	if shown > 10 {
		shown = 10
	}
	for _, v := range c.Violations[:shown] {
		fmt.Fprintf(&b, "  violation %s\n", v)
		for _, bd := range v.Witness {
			fmt.Fprintf(&b, "    %s\n", bd)
		}
	}
	if rest := c.Total - int64(shown); rest > 0 {
		fmt.Fprintf(&b, "  ... %d more violations\n", rest)
	}
	return b.String()
}

// Dist accumulates the values of a distribution formula and renders them
// in a requested view ("hist", "cdf" or "ccdf").
type Dist interface {
	Add(v float64)
	NaNs() uint64
	Render(view string) (string, error)
}

// RenderDist renders d in the given view. The view comes from a parsed
// distribution operator, so an error here is a bug.
func RenderDist(d Dist, view string) string {
	out, err := d.Render(view)
	if err != nil {
		panic(err)
	}
	return out
}

// Outcome is one formula's result over a trace, from which both the text
// summary and the report section are rendered.
type Outcome struct {
	Name   string
	Source string
	// Check is the checker result; nil for distribution formulas.
	Check *CheckResult
	// Dist, View, Instances and Skipped describe a distribution formula.
	Dist      Dist
	View      string
	Instances int64
	Skipped   int64
	// WindowPeak is the high-water mark of retained event history (ring
	// instances) the formula forced the evaluator to hold.
	WindowPeak int64
}

// Summary renders the one-formula text report.
func (o *Outcome) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "formula %s: %s\n", o.Name, o.Source)
	if o.Check != nil {
		b.WriteString(o.Check.String())
	} else {
		fmt.Fprintf(&b, "  %d instances analyzed (%d skipped, %d NaN)\n", o.Instances, o.Skipped, o.Dist.NaNs())
		b.WriteString(RenderDist(o.Dist, o.View))
	}
	return b.String()
}

// Section assembles the formula's report section with the given static
// analysis block.
func (o *Outcome) Section(a *ReportAnalysis) FormulaReport {
	fr := FormulaReport{Name: o.Name, Source: o.Source, WindowPeak: o.WindowPeak, Analysis: a}
	if c := o.Check; c != nil {
		fr.Kind = "check"
		switch {
		case c.Passed():
			fr.Verdict = "pass"
		case c.Total > 0:
			fr.Verdict = "fail"
		default:
			fr.Verdict = "indeterminate"
		}
		fr.Vacuous = c.Passed() && c.Instances == 0
		fr.Instances = c.Instances
		fr.Skipped = c.Skipped
		fr.Violations = c.Total
		fr.Indeterminate = c.Indeterminate
		fr.Retained = len(c.Violations)
		if len(c.Violations) > 0 {
			first := c.Violations[0]
			fr.First = &first
		}
		fr.Worst = c.Worst
		fr.Density = c.Density
		fr.Witnesses = c.Violations
	} else if o.Dist != nil {
		fr.Kind = "dist"
		fr.Verdict = "dist"
		fr.Instances = o.Instances
		fr.Skipped = o.Skipped
	}
	return fr
}

// ReportSchema versions the assertion-report JSON layout. Bump it whenever a
// field is added, removed or reinterpreted so consumers can detect mismatch.
// Schema 2 added the Vacuous flag and the static Analysis block.
const ReportSchema = 2

// ReportAnalysis is the static-analysis block of a formula report: why a
// formula could or could not fail, independent of the trace, plus the
// inferred retention requirement. It is a pure function of the formula
// source over the standard annotation ranges, so every producer (VM,
// generated checkers, stored artifacts) derives identical bytes.
type ReportAnalysis struct {
	// Verdict is always-true, always-false or unknown for check formulas;
	// omitted for distributions.
	Verdict string `json:"verdict,omitempty"`
	// Retention maps each referenced event to the instances the runner must
	// retain for it; Exact records whether those bounds are tight (single
	// event class) or trace-dependent minimums.
	Retention map[string]int64 `json:"retention,omitempty"`
	Exact     bool             `json:"exact,omitempty"`
}

// FormulaReport is the per-formula section of an assertion report.
type FormulaReport struct {
	Name    string `json:"name"`
	Source  string `json:"src"`
	Kind    string `json:"kind"`    // "check" or "dist"
	Verdict string `json:"verdict"` // "pass", "fail", "indeterminate" or "dist"
	// Vacuous marks a check that passed without evaluating a single
	// instance: nothing was asserted, so "pass" is an empty claim.
	Vacuous bool `json:"vacuous,omitempty"`

	Instances     int64 `json:"instances"`
	Skipped       int64 `json:"skipped"`
	Violations    int64 `json:"violations,omitempty"`
	Indeterminate int64 `json:"indeterminate,omitempty"`
	// Retained is how many violations kept full witnesses (MaxViolations
	// caps retention; Violations counts them all).
	Retained   int   `json:"retained,omitempty"`
	WindowPeak int64 `json:"window_peak,omitempty"`

	First   *Violation `json:"first,omitempty"`
	Worst   *Violation `json:"worst,omitempty"`
	Density *Density   `json:"density,omitempty"`
	// Witnesses is every retained violation with full provenance.
	Witnesses []Violation `json:"witnesses,omitempty"`
	// Analysis is the static-analysis block: the relation verdict over the
	// standard annotation ranges and the inferred retention bounds. A pure
	// function of the formula source, identical across every producer.
	Analysis *ReportAnalysis `json:"analysis,omitempty"`
}

// Report is the unified assertion report: a deterministic, serializable
// digest of every formula's outcome over one run. Building it from
// round-tripped results (e.g. a stored job artifact) yields bytes identical
// to building it from the live run.
type Report struct {
	Schema   int             `json:"schema"`
	Formulas []FormulaReport `json:"formulas"`
}

// Failed reports whether any check formula failed or was indeterminate.
func (r *Report) Failed() bool {
	for _, fr := range r.Formulas {
		if fr.Verdict == "fail" || fr.Verdict == "indeterminate" {
			return true
		}
	}
	return false
}

// JSON renders the report as indented JSON with a trailing newline. The
// encoding is deterministic: field order follows the struct declarations and
// all values derive from simulation state.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Text renders a human-oriented summary of the report.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "assertion report (schema %d)\n", r.Schema)
	for _, fr := range r.Formulas {
		fmt.Fprintf(&b, "formula %s: %s\n", fr.Name, fr.Source)
		if a := fr.Analysis; a != nil && (a.Verdict != "" || len(a.Retention) > 0) {
			b.WriteString("  analysis:")
			if a.Verdict != "" {
				fmt.Fprintf(&b, " verdict %s;", a.Verdict)
			}
			if len(a.Retention) > 0 {
				events := make([]string, 0, len(a.Retention))
				for ev := range a.Retention {
					events = append(events, ev)
				}
				sort.Strings(events)
				b.WriteString(" retention")
				for _, ev := range events {
					fmt.Fprintf(&b, " %s=%d", ev, a.Retention[ev])
				}
				if a.Exact {
					b.WriteString(" (exact)")
				}
			}
			b.WriteString("\n")
		}
		if fr.Kind == "dist" {
			fmt.Fprintf(&b, "  dist: %d instances analyzed, %d skipped\n", fr.Instances, fr.Skipped)
			continue
		}
		fmt.Fprintf(&b, "  %s: %d instances evaluated, %d violations (%d retained), %d indeterminate, %d skipped",
			strings.ToUpper(fr.Verdict), fr.Instances, fr.Violations, fr.Retained, fr.Indeterminate, fr.Skipped)
		if fr.WindowPeak > 0 {
			fmt.Fprintf(&b, "; window peak %d", fr.WindowPeak)
		}
		if fr.Vacuous {
			b.WriteString("; passed vacuously (no instance was ever evaluated)")
		}
		b.WriteString("\n")
		if fr.First != nil {
			fmt.Fprintf(&b, "  first %s at t=%gus\n", fr.First, fr.First.Time)
			for _, bd := range fr.First.Witness {
				fmt.Fprintf(&b, "    %s\n", bd)
			}
		}
		if fr.Worst != nil && (fr.First == nil || fr.Worst.Instance != fr.First.Instance) {
			fmt.Fprintf(&b, "  worst %s at t=%gus\n", fr.Worst, fr.Worst.Time)
			for _, bd := range fr.Worst.Witness {
				fmt.Fprintf(&b, "    %s\n", bd)
			}
		}
		if d := fr.Density; d != nil && len(d.Counts) > 0 {
			fmt.Fprintf(&b, "  density: %d violations over [0us, %gus) in %gus bins:",
				d.Total(), d.WidthUS*float64(len(d.Counts)), d.WidthUS)
			for _, c := range d.Counts {
				fmt.Fprintf(&b, " %d", c)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
