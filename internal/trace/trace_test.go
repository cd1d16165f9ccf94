package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEvents() []Event {
	evs := []Event{
		{Name: "m2_pipeline", Cycle: 365, Time: 1.573, Energy: 0.768133, TotalPkt: 120, TotalBit: 61440},
		{Name: "forward", Cycle: 367, Time: 1.580, Energy: 0.784506, TotalPkt: 121, TotalBit: 61952},
		{Name: "fifo", Cycle: 368, Time: 1.583, Energy: 0.794108, TotalPkt: 121, TotalBit: 61952},
	}
	evs[2].SetExtra("port", 3)
	evs[2].SetExtra("idle_frac", 0.35)
	return evs
}

func TestMEEvent(t *testing.T) {
	if got := MEEvent(2, EvPipeline); got != "m2_pipeline" {
		t.Errorf("MEEvent = %q", got)
	}
}

func TestEventString(t *testing.T) {
	evs := sampleEvents()
	if got := evs[0].String(); got != "365 1.573 0.768133 120 61440 m2_pipeline" {
		t.Errorf("String() = %q", got)
	}
	s := evs[2].String()
	// extras must render sorted for determinism
	if !strings.Contains(s, "idle_frac=0.35 port=3") {
		t.Errorf("extras not sorted in %q", s)
	}
}

func roundTrip(t *testing.T, evs []Event, mkW func(*bytes.Buffer) Sink, done func(Sink) error, mkR func(*bytes.Buffer) Source) []Event {
	t.Helper()
	var buf bytes.Buffer
	w := mkW(&buf)
	for i := range evs {
		if err := w.Emit(&evs[i]); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	if err := done(w); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := mkR(&buf)
	var got []Event
	for {
		ev, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, ev)
	}
	return got
}

func TestTextRoundTrip(t *testing.T) {
	evs := sampleEvents()
	got := roundTrip(t, evs,
		func(b *bytes.Buffer) Sink { return NewTextWriter(b) },
		func(s Sink) error { return s.(*TextWriter).Close() },
		func(b *bytes.Buffer) Source { return NewTextReader(b) })
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("text round trip:\n got %+v\nwant %+v", got, evs)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	evs := sampleEvents()
	got := roundTrip(t, evs,
		func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
		func(s Sink) error { return s.(*BinaryWriter).Close() },
		func(b *bytes.Buffer) Source { return NewBinaryReader(b) })
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("binary round trip:\n got %+v\nwant %+v", got, evs)
	}
}

// Property: both encodings round-trip arbitrary event streams exactly
// (times/energies restricted to finite values; text format keeps 3/6
// decimals so we quantize inputs accordingly).
func TestRoundTripProperty(t *testing.T) {
	gen := func(seed int64, n int) []Event {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"forward", "fifo", "m0_pipeline", "m5_pipeline", "idle"}
		evs := make([]Event, n)
		var cyc uint64
		for i := range evs {
			cyc += uint64(rng.Intn(100))
			evs[i] = Event{
				Name:     names[rng.Intn(len(names))],
				Cycle:    cyc,
				Time:     math.Round(rng.Float64()*1e6) / 1e3,
				Energy:   math.Round(rng.Float64()*1e9) / 1e6,
				TotalPkt: uint64(rng.Intn(1e6)),
				TotalBit: uint64(rng.Intn(1e9)),
			}
			if rng.Intn(3) == 0 {
				evs[i].SetExtra("k", math.Round(rng.Float64()*1e6)/1e3)
			}
		}
		return evs
	}
	f := func(seed int64, nn uint8) bool {
		evs := gen(seed, int(nn)%50+1)
		gotT := roundTrip(t, evs,
			func(b *bytes.Buffer) Sink { return NewTextWriter(b) },
			func(s Sink) error { return s.(*TextWriter).Close() },
			func(b *bytes.Buffer) Source { return NewTextReader(b) })
		gotB := roundTrip(t, evs,
			func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
			func(s Sink) error { return s.(*BinaryWriter).Close() },
			func(b *bytes.Buffer) Source { return NewBinaryReader(b) })
		return reflect.DeepEqual(gotT, evs) && reflect.DeepEqual(gotB, evs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []string{
		"1 2 3",                          // too few fields
		"x 1.0 1.0 1 1 forward",          // bad cycle
		"1 y 1.0 1 1 forward",            // bad time
		"1 1.0 z 1 1 forward",            // bad energy
		"1 1.0 1.0 q 1 forward",          // bad total_pkt
		"1 1.0 1.0 1 q forward",          // bad total_bit
		"1 1.0 1.0 1 1 forward garbage",  // malformed extra
		"1 1.0 1.0 1 1 forward k=potato", // bad extra value
		"1 1.0 1.0 1 1 forward =3",       // empty extra key
	}
	for _, line := range cases {
		r := NewTextReader(strings.NewReader(line + "\n"))
		if _, _, err := r.Next(); err == nil {
			t.Errorf("line %q: expected parse error", line)
		} else if _, _, err2 := r.Next(); err2 == nil {
			t.Errorf("line %q: reader did not stay failed", line)
		}
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n  \n1 1.0 1.0 1 1 forward\n# trailing\n"
	r := NewTextReader(strings.NewReader(in))
	ev, ok, err := r.Next()
	if err != nil || !ok || ev.Name != "forward" {
		t.Fatalf("Next = %+v, %v, %v", ev, ok, err)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
}

func TestBinaryReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	evs := sampleEvents()
	for i := range evs {
		if err := w.Emit(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	full := buf.Bytes()
	// Truncate mid-record: keep magic plus a few bytes.
	r := NewBinaryReader(bytes.NewReader(full[:len(full)-5]))
	n := 0
	for {
		_, ok, err := r.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("truncated trace reported clean EOF")
		}
		n++
		if n > len(evs) {
			t.Fatal("read more events than written")
		}
	}
}

func TestBinaryReaderBadMagic(t *testing.T) {
	r := NewBinaryReader(strings.NewReader("JUNKJUNKJUNK"))
	if _, _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("expected magic error, got %v", err)
	}
}

func TestBinaryReaderEmpty(t *testing.T) {
	r := NewBinaryReader(bytes.NewReader(nil))
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("empty input: ok=%v err=%v, want clean EOF", ok, err)
	}
}

func TestOpenSourceSniffing(t *testing.T) {
	evs := sampleEvents()
	var tbuf, bbuf bytes.Buffer
	tw := NewTextWriter(&tbuf)
	bw := NewBinaryWriter(&bbuf)
	for i := range evs {
		tw.Emit(&evs[i])
		bw.Emit(&evs[i])
	}
	tw.Close()
	bw.Close()
	for name, buf := range map[string]*bytes.Buffer{"text": &tbuf, "binary": &bbuf} {
		src, err := OpenSource(buf)
		if err != nil {
			t.Fatalf("%s: OpenSource: %v", name, err)
		}
		count := 0
		for {
			_, ok, err := src.Next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !ok {
				break
			}
			count++
		}
		if count != len(evs) {
			t.Errorf("%s: read %d events, want %d", name, count, len(evs))
		}
	}
}

func TestEmitAfterClose(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTextWriter(&buf)
	tw.Close()
	ev := sampleEvents()[0]
	if err := tw.Emit(&ev); err == nil {
		t.Error("TextWriter.Emit after Close should error")
	}
	bw := NewBinaryWriter(&buf)
	bw.Close()
	if err := bw.Emit(&ev); err == nil {
		t.Error("BinaryWriter.Emit after Close should error")
	}
}

func TestCollectorDeepCopies(t *testing.T) {
	var c Collector
	ev := Event{Name: "x"}
	ev.SetExtra("a", 1)
	c.Emit(&ev)
	ev.Extra["a"] = 99
	ev.Name = "mutated"
	if c.Events[0].Extra["a"] != 1 || c.Events[0].Name != "x" {
		t.Error("Collector must deep-copy events")
	}
	src := c.Source()
	got, ok, _ := src.Next()
	if !ok || got.Name != "x" {
		t.Errorf("Source replay = %+v, %v", got, ok)
	}
}

func TestMultiAndFilterSinks(t *testing.T) {
	var a, b Collector
	var count CountingSink
	ms := MultiSink{&a, &FilterSink{Allow: map[string]bool{"forward": true}, Dest: &b}, &count}
	for _, ev := range sampleEvents() {
		ev := ev
		if err := ms.Emit(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Events) != 3 {
		t.Errorf("unfiltered sink got %d events", len(a.Events))
	}
	if len(b.Events) != 1 || b.Events[0].Name != "forward" {
		t.Errorf("filtered sink got %+v", b.Events)
	}
	if count.Counts["fifo"] != 1 || count.Counts["forward"] != 1 {
		t.Errorf("counting sink = %v", count.Counts)
	}
	// Empty allow set forwards everything.
	var c Collector
	fs := &FilterSink{Dest: &c}
	ev := sampleEvents()[0]
	fs.Emit(&ev)
	if len(c.Events) != 1 {
		t.Error("empty FilterSink should forward all events")
	}
}

func TestBinaryNameInterning(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	ev := Event{Name: "forward"}
	for i := 0; i < 100; i++ {
		ev.Cycle = uint64(i)
		if err := w.Emit(&ev); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// 100 events with one interned 7-byte name should be far below the
	// naive 100*(7+1) bytes of name data.
	if buf.Len() > 100*22+4+16 {
		t.Errorf("binary encoding too large: %d bytes", buf.Len())
	}
	r := NewBinaryReader(&buf)
	n := 0
	for {
		got, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got.Name != "forward" || got.Cycle != uint64(n) {
			t.Fatalf("event %d = %+v", n, got)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("read %d events", n)
	}
}

func BenchmarkTextEmit(b *testing.B) {
	w := NewTextWriter(&bytes.Buffer{})
	ev := sampleEvents()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Cycle = uint64(i)
		w.Emit(&ev)
	}
}

func BenchmarkBinaryEmit(b *testing.B) {
	w := NewBinaryWriter(&bytes.Buffer{})
	ev := sampleEvents()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Cycle = uint64(i)
		w.Emit(&ev)
	}
}

func TestFilterSource(t *testing.T) {
	evs := sampleEvents()
	fs := &FilterSource{Allow: map[string]bool{"forward": true}, Src: &SliceSource{Events: evs}}
	var got []Event
	for {
		ev, ok, err := fs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) != 1 || got[0].Name != "forward" {
		t.Fatalf("filtered events = %+v", got)
	}
	// Empty allow set passes everything through.
	all := &FilterSource{Src: &SliceSource{Events: evs}}
	n := 0
	for {
		_, ok, err := all.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != len(evs) {
		t.Fatalf("unfiltered count = %d, want %d", n, len(evs))
	}
	// Errors propagate.
	bad := &FilterSource{Allow: map[string]bool{"x": true}, Src: NewTextReader(strings.NewReader("bad line\n"))}
	if _, _, err := bad.Next(); err == nil {
		t.Fatal("source error swallowed")
	}
}
