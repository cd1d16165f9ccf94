package loc

import (
	"fmt"
	"sort"

	"nepdvs/internal/stats"
)

// Ref is a unique (annotation, event, index) slot referenced by a formula.
// The compiler assigns each distinct reference one slot; the runner fills
// the slots before each instance evaluation.
type Ref struct {
	Ann   string
	Event string
	Index Index
}

func (r Ref) String() string {
	return fmt.Sprintf("%s(%s[%s])", r.Ann, r.Event, r.Index)
}

// EventWindow describes how much history of one event a streaming evaluation
// must retain.
type EventWindow struct {
	Event string
	// MinOff and MaxOff are the smallest and largest relative offsets
	// referencing this event. Valid only when HasRel.
	MinOff, MaxOff int64
	HasRel         bool
	// AbsIndices lists constant indices referencing this event (sorted).
	AbsIndices []int64
}

// Span is the ring-buffer capacity needed for the relative references:
// MaxOff - MinOff + 1 instances. Zero when the event has only absolute
// references.
func (w EventWindow) Span() int64 {
	if !w.HasRel {
		return 0
	}
	return w.MaxOff - w.MinOff + 1
}

// Retention is the number of instances of this event the streaming runner
// must be able to hold at once: the relative-offset span, stretched when an
// absolute reference on the same event pins instances the evaluation loop
// cannot drain past until instance AbsIndices[last] arrives. Zero when the
// event has only absolute references (the runner keeps no ring for it).
func (w EventWindow) Retention() int64 {
	if !w.HasRel {
		return 0
	}
	n := w.Span()
	if len(w.AbsIndices) > 0 {
		if stall := w.AbsIndices[len(w.AbsIndices)-1] + 1; stall > n {
			n = stall
		}
	}
	return n
}

// Analysis is the result of semantic analysis of one formula.
type Analysis struct {
	Formula *Formula
	// Refs in first-appearance order; slot k in the compiled program
	// corresponds to Refs[k].
	Refs []Ref
	// Windows keyed by event name.
	Windows map[string]*EventWindow
	// UsesIndexVar reports whether the formula's arithmetic uses i itself.
	UsesIndexVar bool
}

// RetentionBound is the statically inferred history requirement of one event
// class. Instances is a lower bound on the ring capacity the runner needs;
// Exact additionally promises the runner's retention can never exceed it, so
// the ring may be allocated once at exactly that capacity.
type RetentionBound struct {
	Instances int64
	Exact     bool
}

// Retention infers the per-event retention bound from the formula's
// index-offset lattice. The bound is exact precisely when the formula
// references a single event class: with several, one event outpacing another
// stalls the evaluation loop and forces retention that depends on the trace
// (the runtime MaxWindow limit still applies), so the bound is only a
// minimum.
func (a *Analysis) Retention() map[string]RetentionBound {
	exact := len(a.Windows) == 1
	out := make(map[string]RetentionBound, len(a.Windows))
	for ev, w := range a.Windows {
		out[ev] = RetentionBound{Instances: w.Retention(), Exact: exact}
	}
	return out
}

// Events returns the sorted referenced event names.
func (a *Analysis) Events() []string {
	out := make([]string, 0, len(a.Windows))
	for e := range a.Windows {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Analyze performs semantic analysis: it validates the analysis period of
// distribution formulas, checks annotation names against the optional
// schema, collects the distinct annotation references, and infers per-event
// history windows. A nil schema defers annotation-name checking to runtime.
func Analyze(f *Formula, schema map[string]bool) (*Analysis, error) {
	if f.Kind == KindDist {
		if err := checkPeriod(f.Period); err != nil {
			return nil, errf(f.Pos, "%v", err)
		}
	}
	refs, first, windows, usesIndexVar := inferRefs(f)
	for _, n := range first {
		if schema != nil && !schema[n.Ann] {
			return nil, errf(n.Pos, "unknown annotation %q (trace schema has %s)", n.Ann, schemaList(schema))
		}
		if !n.Index.Rel && n.Index.Offset < 0 {
			return nil, errf(n.Pos, "absolute event index must be non-negative, got %d", n.Index.Offset)
		}
	}
	a := &Analysis{Formula: f, Refs: refs, Windows: windows, UsesIndexVar: usesIndexVar}
	if len(a.Refs) == 0 {
		return nil, errf(f.Pos, "formula references no trace events; nothing to check")
	}
	// Without a relative reference nothing bounds the instance stream: the
	// formula describes exactly one instance (all indices pinned), so using
	// i would quantify over an unbounded set no trace can ever satisfy the
	// runner to enumerate.
	if a.UsesIndexVar && !hasRel(a.Windows) {
		return nil, errf(f.Pos, "formula uses the instance index i but no relative event reference; the instance stream is unbounded")
	}
	return a, nil
}

// checkPeriod applies the histogram's period rules, so a period passes
// analysis exactly when the runner can bin it.
func checkPeriod(p Period) error {
	if _, err := stats.PeriodBins(p.Min, p.Max, p.Step); err != nil {
		return fmt.Errorf("analysis period %v: %v", p, err)
	}
	return nil
}

// inferRefs walks f once: it collects the distinct annotation references
// in first-appearance order (with the node of each first appearance), infers
// the per-event history windows (ignoring invalid negative absolute
// indices), and reports whether the arithmetic uses the index i itself.
func inferRefs(f *Formula) (refs []Ref, first []*AnnRef, windows map[string]*EventWindow, usesIndexVar bool) {
	windows = make(map[string]*EventWindow)
	seen := map[Ref]bool{}
	f.Walk(func(e Expr) {
		if _, ok := e.(*IndexVar); ok {
			usesIndexVar = true
		}
		n, ok := e.(*AnnRef)
		if !ok {
			return
		}
		r := Ref{Ann: n.Ann, Event: n.Event, Index: clearPos(n.Index)}
		if seen[r] {
			return
		}
		seen[r] = true
		refs, first = append(refs, r), append(first, n)
		w := windows[n.Event]
		if w == nil {
			w = &EventWindow{Event: n.Event}
			windows[n.Event] = w
		}
		switch off := n.Index.Offset; {
		case !n.Index.Rel:
			if off >= 0 {
				w.AbsIndices = insertSorted(w.AbsIndices, off)
			}
		case !w.HasRel:
			w.HasRel, w.MinOff, w.MaxOff = true, off, off
		default:
			w.MinOff, w.MaxOff = min(w.MinOff, off), max(w.MaxOff, off)
		}
	})
	return refs, first, windows, usesIndexVar
}

// hasRel reports whether any window has a relative (i-based) reference.
func hasRel(windows map[string]*EventWindow) bool {
	for _, w := range windows {
		if w.HasRel {
			return true
		}
	}
	return false
}

func insertSorted(xs []int64, v int64) []int64 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func schemaList(schema map[string]bool) string {
	names := make([]string, 0, len(schema))
	for n := range schema {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// StandardSchema returns the annotation schema of NPU simulation traces:
// the five standard annotations plus any extras the caller declares.
func StandardSchema(extras ...string) map[string]bool {
	m := map[string]bool{
		"cycle": true, "time": true, "energy": true, "total_pkt": true, "total_bit": true,
	}
	for _, e := range extras {
		m[e] = true
	}
	return m
}
