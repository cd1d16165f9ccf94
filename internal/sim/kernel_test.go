package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	var k Kernel
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", got)
	}
	if k.Now() != 30 {
		t.Errorf("Now = %v, want 30", k.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	var k Kernel
	var got []int
	for n := 0; n < 100; n++ {
		n := n
		k.Schedule(42, func() { got = append(got, n) })
	}
	k.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events did not fire in FIFO order: %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	var k Kernel
	var got []Time
	k.Schedule(10, func() {
		got = append(got, k.Now())
		k.After(5, func() { got = append(got, k.Now()) })
		k.After(0, func() { got = append(got, k.Now()) })
	})
	k.Run()
	want := []Time{10, 10, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var k Kernel
	k.Schedule(10, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(5, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	k.Schedule(1, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	var k Kernel
	ran := false
	id := k.Schedule(10, func() { ran = true })
	if !k.Cancel(id) {
		t.Fatal("Cancel reported false for pending event")
	}
	if k.Cancel(id) {
		t.Fatal("second Cancel reported true")
	}
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelAfterFire(t *testing.T) {
	var k Kernel
	id := k.Schedule(10, func() {})
	k.Run()
	if k.Cancel(id) {
		t.Fatal("Cancel after fire reported true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var k Kernel
	var got []int
	var ids []EventID
	for n := 0; n < 10; n++ {
		n := n
		ids = append(ids, k.Schedule(Time(n*10), func() { got = append(got, n) }))
	}
	k.Cancel(ids[3])
	k.Cancel(ids[7])
	k.Run()
	for _, n := range got {
		if n == 3 || n == 7 {
			t.Fatalf("cancelled event %d ran", n)
		}
	}
	if len(got) != 8 {
		t.Fatalf("ran %d events, want 8", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	k.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("RunUntil(25) dispatched %d events, want 2", len(got))
	}
	if k.Now() != 25 {
		t.Errorf("Now = %v, want 25 (clock advanced to deadline)", k.Now())
	}
	k.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("after RunUntil(100) dispatched %d events, want 4", len(got))
	}
	if k.Now() != 100 {
		t.Errorf("Now = %v, want 100", k.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	var k Kernel
	ran := false
	k.Schedule(25, func() { ran = true })
	k.RunUntil(25)
	if !ran {
		t.Fatal("event at exactly the deadline did not run")
	}
}

func TestStop(t *testing.T) {
	var k Kernel
	count := 0
	k.Schedule(1, func() { count++; k.Stop() })
	k.Schedule(2, func() { count++ })
	k.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt dispatch, count = %d", count)
	}
	k.Run()
	if count != 2 {
		t.Fatalf("resumed Run did not finish, count = %d", count)
	}
}

func TestDispatchedCount(t *testing.T) {
	var k Kernel
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.Run()
	if k.Dispatched() != 5 {
		t.Fatalf("Dispatched = %d, want 5", k.Dispatched())
	}
}

// Property: dispatching random schedules always yields non-decreasing
// timestamps, regardless of insertion order and nesting.
func TestMonotonicDispatchProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var k Kernel
		var times []Time
		record := func() { times = append(times, k.Now()) }
		for i := 0; i < int(n)%64+1; i++ {
			at := Time(rng.Int63n(1000))
			k.Schedule(at, func() {
				record()
				if rng.Intn(2) == 0 {
					k.After(Time(rng.Int63n(100)), record)
				}
			})
		}
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClockConversions(t *testing.T) {
	c := NewClock(600) // 600 MHz -> 1667 ps period (rounded)
	if c.Period() != 1667 {
		t.Fatalf("600 MHz period = %d ps, want 1667", c.Period())
	}
	if got := c.Cycles(6000); got != 6000*1667 {
		t.Errorf("Cycles(6000) = %v", got)
	}
	if got := c.CyclesIn(10 * Microsecond); got != 5998 {
		t.Errorf("CyclesIn(10us) = %d, want 5998", got)
	}
	if got := c.CyclesIn(-5); got != 0 {
		t.Errorf("CyclesIn(negative) = %d, want 0", got)
	}
	mhz := c.MHz()
	if mhz < 599 || mhz > 601 {
		t.Errorf("MHz = %v, want ~600", mhz)
	}
}

func TestClockZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestTicker(t *testing.T) {
	var k Kernel
	var fires []Time
	tk := NewTicker(&k, 10, func(at Time) { fires = append(fires, at) })
	k.Schedule(35, func() { tk.Stop() })
	k.Run()
	want := []Time{10, 20, 30}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", fires, want)
		}
	}
}

func TestTickerSetInterval(t *testing.T) {
	var k Kernel
	var fires []Time
	var tk *Ticker
	tk = NewTicker(&k, 10, func(at Time) {
		fires = append(fires, at)
		if len(fires) == 2 {
			tk.SetInterval(25)
		}
		if len(fires) == 4 {
			tk.Stop()
		}
	})
	k.Run()
	want := []Time{10, 20, 45, 70}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	var k Kernel
	count := 0
	var tk *Ticker
	tk = NewTicker(&k, 5, func(Time) {
		count++
		tk.Stop()
	})
	k.Run()
	if count != 1 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 1", count)
	}
}

func BenchmarkKernelChurn(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			k.After(1, next)
		}
	}
	k.Schedule(0, next)
	b.ResetTimer()
	k.Run()
}

func TestCancelStaleIDAfterSlotReuse(t *testing.T) {
	var k Kernel
	fired := k.Schedule(1, func() {})
	k.Run()
	cancelled := k.Schedule(2, func() {})
	if !k.Cancel(cancelled) {
		t.Fatal("Cancel of a pending event reported false")
	}
	// Both stale IDs name the slot the next event reuses.
	ran := false
	live := k.Schedule(3, func() { ran = true })
	if live.slot != fired.slot || live.slot != cancelled.slot {
		t.Fatalf("slot not reused: fired %d, cancelled %d, live %d", fired.slot, cancelled.slot, live.slot)
	}
	if k.Cancel(fired) || k.Cancel(cancelled) {
		t.Fatal("Cancel with a stale EventID reported true")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after stale cancels, want 1", k.Pending())
	}
	k.Run()
	if !ran {
		t.Fatal("stale Cancel removed the slot's new occupant")
	}
	if k.Cancelled() != 1 {
		t.Fatalf("Cancelled = %d, want 1", k.Cancelled())
	}
}

func TestCancelZeroID(t *testing.T) {
	var k Kernel
	if k.Cancel(EventID{}) {
		t.Fatal("Cancel(EventID{}) on an empty kernel reported true")
	}
	ran := false
	k.Schedule(1, func() { ran = true })
	if k.Cancel(EventID{}) {
		t.Fatal("Cancel(EventID{}) reported true")
	}
	k.Run()
	if !ran {
		t.Fatal("Cancel(EventID{}) removed a pending event")
	}
}

// Differential property: for random schedule, cancel and nested
// reschedule sequences, the kernel dispatches exactly the events that were
// never cancelled, in the order of a reference sort by (at, seq), and
// Cancel reports true exactly for events still pending.
func TestDispatchOrderMatchesReference(t *testing.T) {
	type rec struct {
		at        Time
		seq       uint64
		fired     bool
		cancelled bool
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var k Kernel
		var recs []*rec
		var ids []EventID
		var order []uint64 // dispatched seqs
		ok := true
		var schedule func(at Time)
		cancelRandom := func() {
			if len(ids) == 0 {
				return
			}
			i := rng.Intn(len(ids))
			r := recs[i]
			pending := !r.fired && !r.cancelled
			if got := k.Cancel(ids[i]); got != pending {
				ok = false
			}
			if pending {
				r.cancelled = true
			}
		}
		schedule = func(at Time) {
			r := &rec{at: at, seq: k.Scheduled()}
			recs = append(recs, r)
			ids = append(ids, k.Schedule(at, func() {
				if r.fired || r.cancelled || k.Now() != r.at {
					ok = false
				}
				r.fired = true
				order = append(order, r.seq)
				switch rng.Intn(4) {
				case 0:
					schedule(k.Now() + Time(rng.Int63n(20)))
				case 1:
					schedule(k.Now())
					schedule(k.Now() + Time(rng.Int63n(5)))
				case 2:
					cancelRandom()
				}
			}))
		}
		for i := 0; i < int(n)%96+1; i++ {
			schedule(Time(rng.Int63n(200)))
			if rng.Intn(4) == 0 {
				cancelRandom()
			}
		}
		k.Run()
		var want []*rec
		for _, r := range recs {
			if !r.cancelled {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if !ok || len(order) != len(want) || k.Pending() != 0 {
			return false
		}
		for i, r := range want {
			if order[i] != r.seq {
				return false
			}
		}
		return k.HeapPops() == k.HeapPushes() && k.Dispatched()+k.Cancelled() == k.HeapPushes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A steady-state Schedule+Step allocates nothing: events live by value in
// a recycled slab.
func TestScheduleStepAllocationFree(t *testing.T) {
	var k Kernel
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.Schedule(k.Now()+Time(i%7), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.After(3, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocated %v times per run, want 0", allocs)
	}
}
