// Package sim provides the discrete-event simulation kernel underlying the
// NPU model. Time is kept in integer picoseconds so that independently
// clocked domains (DVS-scaled microengines, fixed-frequency memory
// controllers and buses) compose without rounding drift.
//
// The kernel is deliberately small: an allocation-free event queue (value
// events in a recycled slab, ordered by a 4-ary min-heap, cancelled through
// generation-checked EventIDs), a Clock helper for cycle/time conversion,
// and a Ticker for periodic callbacks. Determinism is a hard requirement —
// two runs with the same configuration and seed must produce byte-identical
// traces — so events scheduled for the same picosecond fire in scheduling
// order (FIFO), never in map or heap-insertion-accident order.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the timestamp with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Handler is a scheduled callback. It runs exactly once at its due time.
type Handler func()

// event is one pending callback, stored by value in the kernel's slab.
type event struct {
	at  Time
	seq uint64 // scheduling order, breaks ties deterministically
	fn  Handler
	// gen is bumped each time the slot is handed out, so an EventID held
	// past its event's dispatch or cancellation no longer matches.
	gen uint32
	// pos is the slot's index in the heap, or -1 while the slot is free;
	// it makes cancellation O(log n).
	pos int32
}

// EventID identifies a scheduled event so that it can be cancelled. It
// names a slab slot plus the generation the slot had when the event was
// scheduled, so cancelling an event that already fired or was cancelled
// is a no-op even after its slot holds a newer event. The zero EventID
// means "no event".
type EventID struct {
	slot uint32
	gen  uint32
}

// arity is the event heap's fan-out. A 4-ary heap is half as deep as a
// binary one, and a node's four children share a cache line of slot
// indices, so sifting a near-monotone stream of timestamps does fewer,
// cheaper moves.
const arity = 4

// Kernel is the event queue and simulation clock. The zero value is ready to
// use at time zero.
//
// Pending events live by value in a slab whose free slots are recycled
// through a free list, and the queue is a 4-ary min-heap of slab indices
// ordered by (time, sequence). Once the slab has grown to the run's
// high-water mark, Schedule and Step allocate nothing.
type Kernel struct {
	now     Time
	seq     uint64
	events  []event  // slab: every slot ever handed out
	free    []uint32 // recycled slab slots, reused LIFO
	heap    []uint32 // slab indices, a 4-ary min-heap on (at, seq)
	stopped bool
	// interrupted is the only cross-goroutine surface of the kernel: a
	// watchdog may set it while the dispatch loop runs. It is sticky; a
	// kernel is single-run and never reused after an interrupt.
	interrupted atomic.Bool
	// stats
	dispatched    uint64
	cancelled     uint64
	heapHighWater int
	// pushes/pops/swaps are heap operation counters for the perf
	// trajectory. Swaps count element moves during sifts — the actual
	// sift work (heap depth × churn) a better queue has to cut, where
	// pushes and pops only measure traffic. All three derive from the
	// (deterministic) event schedule, so they are safe to publish into
	// metrics snapshots.
	pushes, pops, swaps uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Dispatched reports how many events have run, useful for progress and
// regression tests.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Scheduled reports how many events have ever been scheduled (fired,
// pending or cancelled).
func (k *Kernel) Scheduled() uint64 { return k.seq }

// Cancelled reports how many scheduled events were cancelled before firing.
func (k *Kernel) Cancelled() uint64 { return k.cancelled }

// HeapHighWater reports the deepest the event queue has ever been — the
// kernel's memory high-water mark, and the first number to look at when a
// model floods the queue.
func (k *Kernel) HeapHighWater() int { return k.heapHighWater }

// HeapPushes reports how many events have been pushed onto the event heap.
func (k *Kernel) HeapPushes() uint64 { return k.pushes }

// HeapPops reports how many events have been popped off the event heap
// (dispatches and cancellations both pop).
func (k *Kernel) HeapPops() uint64 { return k.pops }

// HeapSwaps reports how many element moves the 4-ary event heap has made
// while sifting, across all pushes, pops and removals. This is the
// hot-path cost metric an event-queue optimization is expected to move,
// where push/pop counts only reflect event traffic. The count depends on
// the heap's shape: values taken from the earlier binary heap are not
// comparable.
func (k *Kernel) HeapSwaps() uint64 { return k.swaps }

// Schedule runs fn at absolute time at. Scheduling in the past (before Now)
// panics: it always indicates a model bug, and silently clamping it would
// corrupt causality.
func (k *Kernel) Schedule(at Time, fn Handler) EventID {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	var slot uint32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		slot = uint32(len(k.events))
		k.events = append(k.events, event{})
	}
	ev := &k.events[slot]
	ev.gen++
	if ev.gen == 0 { // wrapped: generation 0 is reserved for EventID{}
		ev.gen = 1
	}
	ev.at, ev.seq, ev.fn = at, k.seq, fn
	k.seq++
	k.pushes++
	k.heap = append(k.heap, slot)
	k.up(len(k.heap)-1, slot)
	if len(k.heap) > k.heapHighWater {
		k.heapHighWater = len(k.heap)
	}
	return EventID{slot: slot, gen: ev.gen}
}

// After runs fn delay picoseconds from now.
func (k *Kernel) After(delay Time, fn Handler) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.Schedule(k.now+delay, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event, or the zero EventID, is a no-op and reports
// false — also when the event's slot has since been reused.
func (k *Kernel) Cancel(id EventID) bool {
	if id.gen == 0 || int(id.slot) >= len(k.events) {
		return false
	}
	ev := &k.events[id.slot]
	if ev.gen != id.gen || ev.pos < 0 {
		return false
	}
	k.remove(int(ev.pos))
	k.release(id.slot)
	k.cancelled++
	return true
}

// Pending reports the number of events waiting in the queue.
func (k *Kernel) Pending() int { return len(k.heap) }

// Stop makes Run return after the currently dispatching event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Interrupt asks the dispatch loop to stop. Unlike Stop it is safe to call
// from another goroutine — it is how a wall-clock watchdog aborts a run
// that hangs or livelocks. The loop checks the flag every interruptCheck
// dispatches, so the abort lands within microseconds of real time without
// taxing the hot path. The flag is sticky: once interrupted, RunUntil and
// Run return immediately until the kernel is discarded.
func (k *Kernel) Interrupt() { k.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (k *Kernel) Interrupted() bool { return k.interrupted.Load() }

// interruptCheck is how many dispatches pass between polls of the
// interrupt flag — one atomic load per 1024 events keeps the overhead
// unmeasurable while bounding abort latency.
const interruptCheck = 1024

// Step dispatches the single next event, if any, and reports whether one ran.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	slot := k.heap[0]
	k.remove(0)
	ev := &k.events[slot]
	fn := ev.fn
	k.now = ev.at
	// Free the slot before dispatch: the handler may schedule into it.
	k.release(slot)
	k.dispatched++
	fn()
	return true
}

// RunUntil dispatches events until the queue drains, Stop is called, or the
// next event would fire strictly after deadline. The clock is left at
// min(deadline, last event time); if the queue still holds later events the
// clock is advanced to the deadline so that callers observe a full interval.
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped = false
	for !k.stopped {
		if len(k.heap) == 0 {
			break
		}
		if k.events[k.heap[0]].at > deadline {
			break
		}
		if k.dispatched%interruptCheck == 0 && k.interrupted.Load() {
			return
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Run dispatches events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped {
		if k.dispatched%interruptCheck == 0 && k.interrupted.Load() {
			return
		}
		if !k.Step() {
			break
		}
	}
}

// release returns a slot to the free list. Its generation stays, so IDs
// naming the old occupant fail the generation check once it is reused.
func (k *Kernel) release(slot uint32) {
	ev := &k.events[slot]
	ev.fn = nil // drop the closure for the GC
	ev.pos = -1
	k.free = append(k.free, slot)
}

// before orders slots a and b by (time, sequence).
func (k *Kernel) before(a, b uint32) bool {
	ea, eb := &k.events[a], &k.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// place stores slot at heap index i and records the position in the slab.
func (k *Kernel) place(i int, slot uint32) {
	k.heap[i] = slot
	k.events[slot].pos = int32(i)
}

// up sifts slot toward the root from the hole at index i.
func (k *Kernel) up(i int, slot uint32) {
	for i > 0 {
		parent := (i - 1) / arity
		if !k.before(slot, k.heap[parent]) {
			break
		}
		k.place(i, k.heap[parent])
		k.swaps++
		i = parent
	}
	k.place(i, slot)
}

// down sifts slot toward the leaves from the hole at index i and reports
// whether it moved.
func (k *Kernel) down(i int, slot uint32) bool {
	start := i
	n := len(k.heap)
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+arity && c < n; c++ {
			if k.before(k.heap[c], k.heap[best]) {
				best = c
			}
		}
		if !k.before(k.heap[best], slot) {
			break
		}
		k.place(i, k.heap[best])
		k.swaps++
		i = best
	}
	k.place(i, slot)
	return i != start
}

// remove takes the element at heap index i out of the heap, refilling the
// hole with the last element.
func (k *Kernel) remove(i int) {
	k.pops++
	last := len(k.heap) - 1
	tail := k.heap[last]
	k.heap = k.heap[:last]
	if i == last {
		return
	}
	if !k.down(i, tail) {
		k.up(i, tail)
	}
}

// Clock converts between cycles and picoseconds for one frequency domain.
type Clock struct {
	period Time // picoseconds per cycle
}

// NewClock returns a clock for the given frequency in MHz. Frequencies must
// divide evenly enough that the period stays exact at ps resolution for the
// frequencies used by the model (400–600 MHz in 50 MHz steps, plus memory
// domains); any remainder is rounded to the nearest picosecond, which at
// 600 MHz is a 0.00006% error — far below the model's fidelity.
func NewClock(mhz float64) Clock {
	if mhz <= 0 {
		panic(fmt.Sprintf("sim: non-positive frequency %v", mhz))
	}
	return Clock{period: Time(math.Round(1e6 / mhz))}
}

// Period returns picoseconds per cycle.
func (c Clock) Period() Time { return c.period }

// MHz returns the clock frequency in MHz.
func (c Clock) MHz() float64 { return 1e6 / float64(c.period) }

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.period }

// CyclesIn reports how many full cycles fit in d.
func (c Clock) CyclesIn(d Time) int64 {
	if d < 0 {
		return 0
	}
	return int64(d / c.period)
}

// Ticker invokes a callback every interval until cancelled. It is used for
// DVS monitor windows and periodic statistics sampling.
type Ticker struct {
	k        *Kernel
	interval Time
	fn       func(Time)
	fireFn   Handler // t.fire, bound once so re-arming allocates nothing
	id       EventID
	stopped  bool
}

// NewTicker schedules fn every interval starting interval from now. fn
// receives the firing time.
func NewTicker(k *Kernel, interval Time, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &Ticker{k: k, interval: interval, fn: fn}
	t.fireFn = t.fire
	t.arm()
	return t
}

func (t *Ticker) arm() { t.id = t.k.After(t.interval, t.fireFn) }

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn(t.k.Now())
	if !t.stopped {
		t.arm()
	}
}

// Interval returns the ticker period.
func (t *Ticker) Interval() Time { return t.interval }

// SetInterval changes the period for subsequent firings.
func (t *Ticker) SetInterval(iv Time) {
	if iv <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", iv))
	}
	t.interval = iv
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.k.Cancel(t.id)
}
