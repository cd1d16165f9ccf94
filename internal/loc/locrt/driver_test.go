package locrt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nepdvs/internal/stats"
	"nepdvs/internal/trace"
)

// latencySpec is the compiled form of cycle(deq[i]) - cycle(enq[i]) <= 50.
func latencySpec() *Spec {
	return &Spec{
		Name:   "lat",
		Source: "cycle(deq[i]) - cycle(enq[i]) <= 50",
		Refs: []Ref{
			{Name: "cycle(deq[i])", Ann: "cycle", Event: "deq", Rel: true},
			{Name: "cycle(enq[i])", Ann: "cycle", Event: "enq", Rel: true},
		},
		LHS:      &Program{MaxStack: 2, Code: []Instr{{Op: OpRef}, {Op: OpRef, Arg: 1}, {Op: OpSub}}},
		RHS:      &Program{MaxStack: 1, Code: []Instr{{Op: OpConst, Val: 50}}},
		Rel:      OpLE,
		Analysis: ReportAnalysis{Verdict: "unknown", Retention: map[string]int64{"deq": 1, "enq": 1}},
	}
}

// latencyTrace renders n packets as a text trace: an enq event at cycle
// 10k and a deq event lat(k) cycles later, or none when lat(k) < 0.
func latencyTrace(n int, lat func(int) int) string {
	var b strings.Builder
	b.WriteString("# cycle time(us) energy(uJ) total_pkt total_bit event [extras]\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "%d %d 0 %d 0 enq\n", 10*k, k, k)
		if d := lat(k); d >= 0 {
			fmt.Fprintf(&b, "%d %d 0 %d 0 deq\n", 10*k+d, k, k)
		}
	}
	return b.String()
}

func runDriver(spec *Spec, opts RunnerOptions, args []string, stdin string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = Main(spec, stats.NewHistogram, opts, args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestDriverExitStatus(t *testing.T) {
	pass := latencyTrace(20, func(int) int { return 30 })
	fail := latencyTrace(20, func(k int) int { return 30 + 5*k })

	code, out, errs := runDriver(latencySpec(), RunnerOptions{}, nil, pass)
	if code != 0 || !strings.Contains(out, "PASSED: 20 instances evaluated") {
		t.Fatalf("passing trace: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	code, out, errs = runDriver(latencySpec(), RunnerOptions{}, nil, fail)
	if code != 1 || !strings.Contains(out, "FAILED: 20 instances evaluated, 15 violations") {
		t.Fatalf("violating trace: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	for _, args := range [][]string{
		{filepath.Join(t.TempDir(), "missing.txt")},
		{"-report"},
		{"a.txt", "b.txt"},
	} {
		if code, out, errs := runDriver(latencySpec(), RunnerOptions{}, args, pass); code != 2 || out != "" || errs == "" {
			t.Errorf("args %q: exit %d, stdout %q, stderr %q; want exit 2 with only an error", args, code, out, errs)
		}
	}
}

func TestDriverReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	code, _, errs := runDriver(latencySpec(), RunnerOptions{}, []string{"-report", path},
		latencyTrace(20, func(k int) int { return 30 + 5*k }))
	if code != 1 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	fr := rep.Formulas[0]
	if rep.Schema != ReportSchema || fr.Name != "lat" || fr.Verdict != "fail" || fr.Violations != 15 ||
		fr.Worst == nil || fr.Worst.Instance != 19 || fr.Analysis.Verdict != "unknown" {
		t.Fatalf("report = %s", b)
	}
}

// TestDriverMaxWindow checks that a formula whose history outgrows
// RunnerOptions.MaxWindow fails cleanly instead of buffering without
// bound: here no deq ever arrives, so every enq must be kept.
func TestDriverMaxWindow(t *testing.T) {
	starved := latencyTrace(50, func(int) int { return -1 })
	code, _, errs := runDriver(latencySpec(), RunnerOptions{MaxWindow: 8}, nil, starved)
	if code != 2 || !strings.Contains(errs, "history exceeds 8 instances") {
		t.Fatalf("exit %d, stderr %q; want exit 2 on window overflow", code, errs)
	}
	if code, _, errs := runDriver(latencySpec(), RunnerOptions{}, nil, starved); code != 0 {
		t.Fatalf("default window: exit %d, stderr %q", code, errs)
	}
}

// TestParseTextLineMatchesTraceReader holds the driver's line parser to the
// simulator's text trace reader: both accept the same lines with the same
// values, and both reject the same malformed lines.
func TestParseTextLineMatchesTraceReader(t *testing.T) {
	good := []string{
		"365 1.573 0.768133 120 61440 forward",
		"0 0 0 0 0 enq idle_frac=0.25 mhz=550",
		"18446744073709551615 1e300 -2.5 7 8 deq",
	}
	bad := []string{
		"1 2 3",                    // too few fields
		"x 2 3 4 5 enq",            // non-numeric cycle
		"1.5 2 3 4 5 enq",          // fractional cycle
		"-1 2 3 4 5 enq",           // negative cycle
		"NaN 2 3 4 5 enq",          // NaN cycle
		"1 2 3 4.5 5 enq",          // fractional total_pkt
		"1 2 3 4 -5 enq",           // negative total_bit
		"1 2 3 4 5 enq junk",       // extra without '='
		"1 2 3 4 5 enq =5",         // extra with an empty key
		"1 2 3 4 5 enq k=v",        // non-numeric extra value
		"1 two 3 4 5 enq",          // non-numeric time
		"1 2 3 4 5 enq k=1 j=oops", // a bad extra after a good one
	}
	for _, line := range good {
		got, err := parseTextLine(line)
		if err != nil {
			t.Errorf("parseTextLine(%q): %v", line, err)
			continue
		}
		want, ok, err := trace.NewTextReader(strings.NewReader(line)).Next()
		if !ok || err != nil {
			t.Errorf("trace reader rejects %q: %v", line, err)
			continue
		}
		if g := trace.Event(got); !reflect.DeepEqual(g, want) {
			t.Errorf("%q: driver parsed %+v, trace reader %+v", line, g, want)
		}
	}
	for _, line := range bad {
		if _, err := parseTextLine(line); err == nil {
			t.Errorf("parseTextLine accepts %q", line)
		}
		if _, _, err := trace.NewTextReader(strings.NewReader(line)).Next(); err == nil {
			t.Errorf("trace reader accepts %q", line)
		}
		if code, _, _ := runDriver(latencySpec(), RunnerOptions{}, nil, line+"\n"); code != 2 {
			t.Errorf("driver exit %d on %q, want 2", code, line)
		}
	}
}
