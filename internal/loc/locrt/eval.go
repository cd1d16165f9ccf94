package locrt

import "fmt"

// Event is one trace event as the evaluator sees it: the five standard
// annotations as fields plus any extras. Its layout matches the simulator's
// trace event field for field, so the in-process runner converts a trace
// event pointer to *Event for free (and stops compiling if they drift).
type Event struct {
	Name     string
	Cycle    uint64
	Time     float64 // microseconds
	Energy   float64 // microjoules
	TotalPkt uint64
	TotalBit uint64
	Extra    map[string]float64
}

// Annotation returns the named annotation value; unknown names report
// ok = false.
func (e *Event) Annotation(name string) (v float64, ok bool) {
	switch name {
	case "cycle":
		return float64(e.Cycle), true
	case "time":
		return e.Time, true
	case "energy":
		return e.Energy, true
	case "total_pkt":
		return float64(e.TotalPkt), true
	case "total_bit":
		return float64(e.TotalBit), true
	}
	v, ok = e.Extra[name]
	return v, ok
}

// Ref is one reference slot of a compiled formula: an annotation of an
// event instance, at i+Off when Rel and at the constant instance Off
// otherwise.
type Ref struct {
	Name  string // source form, e.g. "cycle(deq[i-1])"
	Ann   string
	Event string
	Rel   bool
	Off   int64
}

// Spec is a compiled formula in the form the evaluator runs: everything a
// generated checker embeds as its one literal.
type Spec struct {
	Name   string
	Source string // the formula in concrete syntax
	// Refs are the reference slots, in first-appearance order; OpRef k in
	// the programs reads Refs[k].
	Refs []Ref
	LHS  *Program
	RHS  *Program // nil for distribution formulas
	Rel  RelOp    // checker relation
	// View is the distribution operator ("hist", "cdf" or "ccdf") and
	// Min, Max, Step the analysis period; distribution formulas only.
	View           string
	Min, Max, Step float64
	// Analysis is the formula's static-analysis block. Its per-event
	// Retention bounds seed the ring capacities.
	Analysis ReportAnalysis
}

// RunnerOptions tunes runner resource limits.
type RunnerOptions struct {
	// MaxViolations bounds the retained violation list (the total is always
	// counted). Zero means the default of 100.
	MaxViolations int
	// MaxWindow bounds the per-event history a formula may force the runner
	// to retain. A formula such as cycle(a[i]) - cycle(b[i]) <= 5 over a
	// trace where a outruns b needs unbounded memory; the runner fails
	// cleanly at this limit instead of exhausting memory. Zero means the
	// default of 1<<22 instances.
	MaxWindow int64
}

func (o RunnerOptions) maxViolations() int {
	if o.MaxViolations <= 0 {
		return 100
	}
	return o.MaxViolations
}

func (o RunnerOptions) maxWindow() int64 {
	if o.MaxWindow <= 0 {
		return 1 << 22
	}
	return o.MaxWindow
}

// ringPrealloc caps the up-front ring allocation (in instances). Formulas
// with an exact retention bound at or below it never reallocate; larger or
// inexact windows start here and double on demand.
const ringPrealloc = 1 << 16

// ring is a FIFO of per-instance reference-value vectors for one event,
// indexed by absolute instance number. Vectors are stored flat — stride
// float64s per instance — so the steady-state evaluation loop performs no
// per-event allocation, and the capacity is seeded from the statically
// inferred retention bound so typical checkers allocate exactly once.
type ring struct {
	base   int64 // instance number of the slot at head
	head   int
	count  int
	stride int
	data   []float64
}

func newRing(stride int, bound int64) ring {
	return ring{stride: stride, data: make([]float64, int(min(max(bound, 1), ringPrealloc))*stride)}
}

func (r *ring) cap() int { return len(r.data) / r.stride }

// pushSlot appends the next instance and returns its value slot for the
// caller to fill in place.
func (r *ring) pushSlot() []float64 {
	if r.count == r.cap() {
		grown := make([]float64, max(4, 2*r.cap())*r.stride)
		for k := 0; k < r.count; k++ {
			src := (r.head + k) % r.cap()
			copy(grown[k*r.stride:(k+1)*r.stride], r.data[src*r.stride:(src+1)*r.stride])
		}
		r.data, r.head = grown, 0
	}
	k := (r.head + r.count) % r.cap()
	r.count++
	return r.data[k*r.stride : (k+1)*r.stride]
}

// get returns the value vector for absolute instance n, which must be
// retained.
func (r *ring) get(n int64) []float64 {
	k := (r.head + int(n-r.base)) % r.cap()
	return r.data[k*r.stride : (k+1)*r.stride]
}

// trimBelow drops instances < n.
func (r *ring) trimBelow(n int64) {
	d := n - r.base
	if d <= 0 {
		return
	}
	if d >= int64(r.count) {
		r.head, r.count, r.base = 0, 0, n
		return
	}
	r.head = (r.head + int(d)) % r.cap()
	r.count -= int(d)
	r.base = n
}

// eventState tracks one referenced event of a formula.
type eventState struct {
	name  string
	count int64 // instances of this event seen so far
	// rel lists the slots of the relative refs on this event; ring column
	// k holds rel[k]'s annotation, and the two columns after them the
	// event's time and cycle, for witness provenance.
	rel    []int
	abs    []int // slots of the absolute refs on this event
	minOff int64 // smallest relative offset; valid when rel is non-empty
	ring   ring
}

// slotState is the runtime side of one reference slot: its event and, for
// a relative ref, its ring column; for an absolute ref, the captured value
// and trace coordinates of the pinned instance.
type slotState struct {
	es               *eventState
	col              int
	seen             bool
	val, time, cycle float64
}

// Evaluator streams one compiled formula over a trace: it buffers each
// referenced event's history in a flat ring, evaluates every instance as
// soon as the events its references bind have arrived, and accumulates the
// Outcome.
type Evaluator struct {
	spec    Spec
	opts    RunnerOptions
	events  map[string]*eventState
	order   []eventState // backing store of events, in first-reference order
	slots   []slotState  // indexed by ref slot
	next    int64        // next instance index to evaluate
	refVals []float64
	stack   []float64
	err     error
	// single marks a formula with no relative references: all its indices
	// are pinned, so it describes exactly one instance. done records that
	// the instance was handled, ending the stream (without it the drain
	// loop would spin forever — nothing ever makes the next instance
	// un-ready).
	single   bool
	done     bool
	worstDev float64
	out      Outcome

	// OnRetain, when set, is called for every retained violation with its
	// instance, values, and the earliest and latest trace times (µs) its
	// references bound.
	OnRetain func(i int64, lhs, rhs, minT, maxT float64)
}

// NewEvaluator prepares the streaming evaluation of spec. dist receives the
// values of a distribution formula and is ignored for checkers.
func NewEvaluator(spec *Spec, opts RunnerOptions, dist Dist) *Evaluator {
	e := &Evaluator{
		spec:    *spec,
		opts:    opts,
		events:  make(map[string]*eventState),
		order:   make([]eventState, 0, len(spec.Refs)), // never reallocated: events point into it
		slots:   make([]slotState, len(spec.Refs)),
		refVals: make([]float64, len(spec.Refs)),
		single:  true,
		out:     Outcome{Name: spec.Name, Source: spec.Source},
	}
	if spec.RHS != nil {
		e.out.Check = &CheckResult{}
	} else {
		e.out.Dist, e.out.View = dist, spec.View
	}
	for slot, ref := range spec.Refs {
		es := e.events[ref.Event]
		if es == nil {
			e.order = append(e.order, eventState{name: ref.Event})
			es = &e.order[len(e.order)-1]
			e.events[ref.Event] = es
		}
		e.slots[slot].es = es
		if !ref.Rel {
			es.abs = append(es.abs, slot)
			continue
		}
		if len(es.rel) == 0 || ref.Off < es.minOff {
			es.minOff = ref.Off
		}
		e.slots[slot].col = len(es.rel)
		es.rel = append(es.rel, slot)
		e.single = false
	}
	// Seed each ring at its statically inferred retention bound (capped by
	// ringPrealloc and the runtime window limit): exact bounds make the ring
	// a single, final allocation.
	for k := range e.order {
		if es := &e.order[k]; len(es.rel) > 0 {
			es.ring = newRing(len(es.rel)+2, min(spec.Analysis.Retention[es.name], opts.maxWindow()))
		}
	}
	return e
}

// Outcome returns the formula's result so far.
func (e *Evaluator) Outcome() *Outcome { return &e.out }

// Err returns the runtime error (missing annotation, window overflow) that
// stopped the evaluation, if any.
func (e *Evaluator) Err() error { return e.err }

// Emit feeds one trace event. The first runtime error is returned and kept
// (see Err); the evaluator ignores every later event.
func (e *Evaluator) Emit(ev *Event) error {
	es := e.events[ev.Name]
	if es == nil || e.err != nil {
		return nil
	}
	e.err = e.onEvent(es, ev)
	return e.err
}

func (e *Evaluator) annotation(ev *Event, n int64, slot int) (float64, error) {
	ann := e.spec.Refs[slot].Ann
	v, ok := ev.Annotation(ann)
	if !ok {
		return 0, fmt.Errorf("loc: formula %s: event %q instance %d has no annotation %q", e.spec.Name, ev.Name, n, ann)
	}
	return v, nil
}

func (e *Evaluator) onEvent(es *eventState, ev *Event) error {
	n := es.count
	es.count++
	// Capture the absolute refs pinned to this instance.
	for _, slot := range es.abs {
		if ss := &e.slots[slot]; e.spec.Refs[slot].Off == n && !ss.seen {
			v, err := e.annotation(ev, n, slot)
			if err != nil {
				return err
			}
			ss.val, ss.time, ss.cycle, ss.seen = v, ev.Time, float64(ev.Cycle), true
		}
	}
	// Capture relative refs into the ring, filling the flat slot in place
	// (no per-event allocation).
	if len(es.rel) > 0 {
		// Trim on arrival, not just after evaluation: instances below
		// next+minOff can never be referenced again, and dropping them here
		// keeps retention within the statically inferred bound even while
		// the evaluation loop is stalled (e.g. waiting on a pinned index).
		// The floor is clamped to this event's arriving instance — the ring
		// equates position with instance number, so trimming past the last
		// push would mislabel everything pushed after.
		es.ring.trimBelow(min(e.next+es.minOff, n))
		if int64(es.ring.count) >= e.opts.maxWindow() {
			return fmt.Errorf("loc: formula %s: event %q history exceeds %d instances; "+
				"the formula requires unbounded memory on this trace", e.spec.Name, ev.Name, e.opts.maxWindow())
		}
		vals := es.ring.pushSlot()
		for col, slot := range es.rel {
			v, err := e.annotation(ev, n, slot)
			if err != nil {
				return err
			}
			vals[col] = v
		}
		vals[len(es.rel)] = ev.Time
		vals[len(es.rel)+1] = float64(ev.Cycle)
		if c := int64(es.ring.count); c > e.out.WindowPeak {
			e.out.WindowPeak = c
		}
	}
	e.drain()
	return nil
}

// drain evaluates every instance that has become evaluable.
func (e *Evaluator) drain() {
	for {
		ok, skip := e.ready(e.next)
		if !ok {
			return
		}
		if skip {
			if e.out.Check != nil {
				e.out.Check.Skipped++
			} else {
				e.out.Skipped++
			}
		} else {
			for slot := range e.slots {
				e.refVals[slot], _, _ = e.bound(slot, e.next)
			}
			e.evalInstance(e.next)
		}
		e.next++
		// Drop history no future instance can reference.
		for k := range e.order {
			if es := &e.order[k]; len(es.rel) > 0 {
				es.ring.trimBelow(e.next + es.minOff)
			}
		}
		// With every index pinned the formula has exactly one instance,
		// which was just handled.
		e.done = e.single
	}
}

// ready reports whether instance i can be evaluated now; skip means the
// instance is vacuous (some relative index is negative).
func (e *Evaluator) ready(i int64) (ok, skip bool) {
	if e.done {
		return false, false
	}
	for slot, ref := range e.spec.Refs {
		ss := &e.slots[slot]
		switch idx := i + ref.Off; {
		case !ref.Rel:
			if !ss.seen {
				return false, false
			}
		case idx < 0:
			skip = true
		case idx >= ss.es.count:
			return false, false
		}
	}
	return true, skip
}

// bound returns the value slot's reference bound for instance i, and the
// trace time and cycle of the event instance it came from.
func (e *Evaluator) bound(slot int, i int64) (val, time, cycle float64) {
	ss := &e.slots[slot]
	if !e.spec.Refs[slot].Rel {
		return ss.val, ss.time, ss.cycle
	}
	vals := ss.es.ring.get(i + e.spec.Refs[slot].Off)
	n := len(ss.es.rel)
	return vals[ss.col], vals[n], vals[n+1]
}

func (e *Evaluator) evalInstance(i int64) {
	var lhs float64
	lhs, e.stack = e.spec.LHS.Eval(e.refVals, i, e.stack)
	ch := e.out.Check
	if ch == nil {
		e.out.Instances++
		e.out.Dist.Add(lhs)
		return
	}
	var rhs float64
	rhs, e.stack = e.spec.RHS.Eval(e.refVals, i, e.stack)
	ch.Instances++
	if lhs != lhs || rhs != rhs { // NaN
		ch.Indeterminate++
		return
	}
	if !e.spec.Rel.Holds(lhs, rhs) {
		e.violation(i, lhs, rhs)
	}
}

// violation records a failing instance: every violation feeds the total and
// the time-density series; retained ones (and any new worst) additionally
// capture full witness provenance, and retained ones are passed to
// OnRetain.
func (e *Evaluator) violation(i int64, lhs, rhs float64) {
	ch := e.out.Check
	ch.Total++
	// The earliest and latest trace times the instance's references bound.
	var minT, maxT float64
	for slot := range e.slots {
		_, t, _ := e.bound(slot, i)
		if slot == 0 || t < minT {
			minT = t
		}
		if slot == 0 || t > maxT {
			maxT = t
		}
	}
	if ch.Density == nil {
		ch.Density = &Density{}
	}
	ch.Density.Add(maxT)
	dev := e.spec.Rel.deviation(lhs, rhs)
	retain := len(ch.Violations) < e.opts.maxViolations()
	worse := ch.Worst == nil || dev > e.worstDev
	if !retain && !worse {
		return
	}
	v := Violation{Instance: i, LHS: lhs, RHS: rhs, Time: maxT, Witness: e.witness(i)}
	if retain {
		ch.Violations = append(ch.Violations, v)
		if e.OnRetain != nil {
			e.OnRetain(i, lhs, rhs, minT, maxT)
		}
	}
	if worse {
		wv := v
		ch.Worst = &wv
		e.worstDev = dev
	}
}

// witness reconstructs the provenance of instance i: one Binding per
// reference slot, in slot order.
func (e *Evaluator) witness(i int64) []Binding {
	w := make([]Binding, len(e.slots))
	for slot, r := range e.spec.Refs {
		b := Binding{Ref: r.Name, Event: r.Event, Ann: r.Ann, Index: r.Off}
		if r.Rel {
			b.Index += i
		}
		b.Value, b.Time, b.Cycle = e.bound(slot, i)
		w[slot] = b
	}
	return w
}
