package locrt

import "testing"

func TestRingGrowth(t *testing.T) {
	r := newRing(1, 1)
	for k := int64(0); k < 1000; k++ {
		r.pushSlot()[0] = float64(k)
	}
	for k := int64(0); k < 1000; k++ {
		if got := r.get(k)[0]; got != float64(k) {
			t.Fatalf("get(%d) = %v", k, got)
		}
	}
	r.trimBelow(990)
	if r.base != 990 || r.count != 10 {
		t.Fatalf("after trim base=%d count=%d", r.base, r.count)
	}
	if got := r.get(995)[0]; got != 995 {
		t.Fatalf("get(995) = %v", got)
	}
	r.pushSlot()[0] = 1000
	if got := r.get(1000)[0]; got != 1000 {
		t.Fatalf("get(1000) = %v", got)
	}
}

func TestRingPreallocExact(t *testing.T) {
	// A ring seeded with an exact bound should never reallocate while the
	// retained count stays within the bound.
	r := newRing(3, 101)
	if r.cap() != 101 {
		t.Fatalf("cap = %d, want 101", r.cap())
	}
	base := &r.data[0]
	for k := 0; k < 500; k++ {
		if r.count == 101 {
			r.trimBelow(r.base + 1)
		}
		r.pushSlot()[0] = float64(k)
	}
	if &r.data[0] != base {
		t.Fatal("ring reallocated despite staying within its exact bound")
	}
	// The prealloc is clamped so an absurd static bound cannot eat memory.
	if big := newRing(1, 1<<40); big.cap() != ringPrealloc {
		t.Fatalf("clamped cap = %d, want %d", big.cap(), ringPrealloc)
	}
}

func TestAnnotationLookup(t *testing.T) {
	ev := Event{Name: "m2_pipeline", Cycle: 365, Time: 1.573, Energy: 0.768133, TotalPkt: 120, TotalBit: 61440}
	cases := []struct {
		name string
		want float64
	}{
		{"cycle", 365},
		{"time", 1.573},
		{"energy", 0.768133},
		{"total_pkt", 120},
		{"total_bit", 61440},
	}
	for _, c := range cases {
		got, ok := ev.Annotation(c.name)
		if !ok || got != c.want {
			t.Errorf("Annotation(%q) = %v, %v; want %v, true", c.name, got, ok, c.want)
		}
	}
	if _, ok := ev.Annotation("bogus"); ok {
		t.Error("unknown annotation should report !ok")
	}
	ev.Extra = map[string]float64{"x": 7}
	if v, ok := ev.Annotation("x"); !ok || v != 7 {
		t.Errorf("extra annotation = %v, %v", v, ok)
	}
}
