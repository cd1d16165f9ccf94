package loc

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nepdvs/internal/loc/locrt"
	"nepdvs/internal/stats"
	"nepdvs/internal/trace"
)

func TestGenerateGoContainsArtifacts(t *testing.T) {
	f := MustParse("(energy(forward[i+100]) - energy(forward[i])) / (time(forward[i+100]) - time(forward[i])) cdf [0.5, 2.25, 0.01]")
	f.Name = "power"
	src, err := GenerateGo(f, StandardSchema())
	if err != nil {
		t.Fatal(err)
	}
	// gofmt aligns the literal's keys, so compare with runs of blanks
	// collapsed.
	flat := strings.Join(strings.Fields(src), " ")
	for _, want := range []string{
		"package main",
		`Name: "power",`,
		`View: "cdf",`,
		"Min: 0.5, Max: 2.25, Step: 0.01,",
		`{Name: "energy(forward[i+100])", Ann: "energy", Event: "forward", Rel: true, Off: 100},`,
		"func NewHistogram(",
		"func main()",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func TestGenerateGoChecker(t *testing.T) {
	f := MustParse("cycle(deq[i]) - cycle(enq[i]) <= 50")
	src, err := GenerateGo(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat := strings.Join(strings.Fields(src), " ")
	for _, want := range []string{"Rel: OpLE,", "RHS: &Program{", "{Op: OpConst, Val: 50},"} {
		if !strings.Contains(flat, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if strings.Contains(flat, "View:") {
		t.Error("checker source carries a distribution view")
	}
}

func TestGenerateGoRejectsBadFormula(t *testing.T) {
	f := MustParse("watts(x[i]) <= 1")
	if _, err := GenerateGo(f, StandardSchema()); err == nil {
		t.Fatal("schema violation not reported")
	}
}

// TestGeneratedCheckerRuns builds and runs a generated checker with the Go
// toolchain, comparing its verdict with the in-process runner on the same
// trace. Skipped in -short mode (it shells out to `go run`).
func TestGeneratedCheckerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	formula := "cycle(deq[i]) - cycle(enq[i]) <= 50"
	evs := mkTrace(50, func(k int) uint64 {
		if k == 7 {
			return 99
		}
		return 30
	})

	dir := t.TempDir()
	tracePath := writeTextTrace(t, dir, evs)
	src, err := GenerateGo(MustParse(formula), nil)
	if err != nil {
		t.Fatal(err)
	}
	mainPath := filepath.Join(dir, "checker.go")
	if err := os.WriteFile(mainPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "run", mainPath, tracePath)
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err = cmd.Run()
	// One violation -> exit code 1.
	if err == nil {
		t.Fatalf("generated checker exited 0 on violating trace; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAILED") || !strings.Contains(out.String(), "1 violations") {
		t.Fatalf("generated checker output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "i=7") {
		t.Fatalf("generated checker did not identify instance 7:\n%s", out.String())
	}
}

// TestGeneratedCheckerExitStatus feeds a generated analyzer malformed
// traces and asserts it dies with status 2 — a malformed trace must never
// be reported as a pass (exit 0) or be confused with an assertion
// violation (exit 1). Skipped in -short mode (shells out to `go build`).
func TestGeneratedCheckerExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	dir := t.TempDir()
	binPath := buildChecker(t, dir, "checker", MustParse("cycle(deq[i]) - cycle(enq[i]) <= 50"))
	cases := []struct {
		name, input string
	}{
		{"too-few-fields", "1 2 3\n"},
		{"bad-number", "x 2 3 4 5 enq\n"},
		{"bad-extra", "1 2 3 4 5 enq junk\n"},
		// The trace reader's integer columns and extra-key rule apply.
		{"fractional-cycle", "1.5 2 3 4 5 enq\n"},
		{"negative-cycle", "-1 2 3 4 5 enq\n"},
		{"nan-cycle", "NaN 2 3 4 5 enq\n"},
		{"fractional-total-pkt", "1 2 3 4.5 5 enq\n"},
		{"empty-extra-key", "1 2 3 4 5 enq =5\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tracePath := filepath.Join(dir, c.name+".txt")
			if err := os.WriteFile(tracePath, []byte(c.input), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(binPath, tracePath).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("run = %v, want exit error; output:\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("exit = %d, want 2; output:\n%s", code, out)
			}
		})
	}
	// A missing trace file is also status 2.
	out, err := exec.Command(binPath, filepath.Join(dir, "nope.txt")).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("missing file: %v, want exit 2; output:\n%s", err, out)
	}
}

// TestGeneratedDistMatchesRunner compares a generated distribution
// analyzer's whole output with the in-process runner's summary.
func TestGeneratedDistMatchesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	formula := "cycle(forward[i+10]) - cycle(forward[i]) cdf [0, 200, 50]"
	evs := mkTrace(60, func(k int) uint64 { return uint64(20 + k%3) })
	res := runOne(t, formula, evs)
	want := res.Summary()

	dir := t.TempDir()
	tracePath := writeTextTrace(t, dir, evs)
	bin := buildChecker(t, dir, "analyzer", MustParse(formula))
	got, err := exec.Command(bin, tracePath).Output()
	if err != nil {
		t.Fatalf("generated analyzer failed: %v\n%s", err, got)
	}
	if string(got) != want {
		t.Fatalf("generated analyzer output differs from the runner:\n--- generated ---\n%s--- runner ---\n%s", got, want)
	}
}

// TestGeneratedReportByteIdentical asserts the tentpole guarantee: for one
// trace, the assertion report written by a locgen-generated checker is
// byte-identical to the one the in-process VM builds — witnesses, worst
// offender, density and all — across the formula shapes the evaluator
// distinguishes (relative, negative and pinned indices, single-instance
// formulas, calls, distributions, and a violation count past the retention
// cap). Both paths parse the same text trace so the float64 inputs are
// bit-equal. Skipped in -short mode (shells out to go).
func TestGeneratedReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	dir := t.TempDir()
	tracePath := writeTextTrace(t, dir, shapeTrace())
	for _, c := range formulaShapes {
		t.Run(c.name, func(t *testing.T) {
			// VM path: re-read the written trace so both evaluators see the
			// exact same parsed floats.
			in, err := os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			source, err := trace.OpenSource(in)
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunFormulas(c.formula, source, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildReport(results).JSON()
			if err != nil {
				t.Fatal(err)
			}
			if ch := results[0].Check; c.name == "past-retention-cap" && (ch.Total <= 100 || ch.Worst.Instance <= ch.Violations[99].Instance) {
				t.Fatalf("%d violations, worst i=%d; the case must put the worst past the retention cap", ch.Total, ch.Worst.Instance)
			}

			bin := buildChecker(t, dir, c.name, MustParse(c.formula))
			reportPath := filepath.Join(dir, c.name+".json")
			out, err := exec.Command(bin, "-report", reportPath, tracePath).Output()
			if _, ok := err.(*exec.ExitError); err != nil && !ok {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if want := results[0].Summary(); string(out) != want {
				t.Fatalf("generated checker stdout differs from Result.Summary:\n--- generated ---\n%s--- vm ---\n%s", out, want)
			}
			got, err := os.ReadFile(reportPath)
			if err != nil {
				t.Fatalf("generated checker wrote no report: %v\noutput:\n%s", err, out)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("generated report differs from VM report:\n--- generated ---\n%s\n--- vm ---\n%s", got, want)
			}
		})
	}
}

// formulaShapes are the formula shapes the evaluator distinguishes:
// relative, negative and pinned indices, a single-instance formula, calls,
// distributions, and a violation count past the retention cap whose worst
// offender lies beyond the cap.
var formulaShapes = []struct{ name, formula string }{
	{"relative", "cycle(deq[i]) - cycle(enq[i]) <= 50"},
	{"negative-offset", "cycle(deq[i-3]) - cycle(enq[i]) <= 10"},
	{"pinned", "cycle(deq[i]) - cycle(enq[0]) <= 5000"},
	{"single-instance", "cycle(deq[5]) - cycle(enq[2]) <= 10"},
	{"calls", "max(abs(cycle(enq[i]) - cycle(deq[i])), 10) <= 55"},
	{"cdf", "cycle(forward[i+10]) - cycle(forward[i]) cdf [0, 200, 50]"},
	{"hist", "(energy(forward[i+20]) - energy(forward[i])) / (time(forward[i+20]) - time(forward[i])) hist [0, 20, 0.5]"},
	{"past-retention-cap", "cycle(deq[i]) - cycle(enq[i]) <= 40"},
}

// shapeTrace is the 400-packet trace formulaShapes run over.
func shapeTrace() []trace.Event {
	return mkTrace(400, func(k int) uint64 {
		if k%7 == 0 {
			return uint64(60 + k/8)
		}
		return uint64(30 + (k*37)%23)
	})
}

// TestCheckerDriverMatchesRunner runs the generated checker's driver in
// process — no toolchain needed — over every formula shape and requires
// its stdout, -report bytes and exit status to match the runner's Summary,
// BuildReport and verdict.
func TestCheckerDriverMatchesRunner(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTextTrace(t, dir, shapeTrace())
	text, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range formulaShapes {
		t.Run(c.name, func(t *testing.T) {
			source, err := trace.OpenSource(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunFormulas(c.formula, source, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep := BuildReport(results)
			wantReport, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			wantCode := 0
			if rep.Failed() {
				wantCode = 1
			}

			sp, err := checkerSpec(MustParse(c.formula), nil)
			if err != nil {
				t.Fatal(err)
			}
			reportPath := filepath.Join(dir, c.name+".json")
			var stdout, stderr bytes.Buffer
			code := locrt.Main(sp, stats.NewHistogram, RunnerOptions{},
				[]string{"-report", reportPath}, bytes.NewReader(text), &stdout, &stderr)
			if code != wantCode {
				t.Fatalf("exit = %d, want %d; stderr: %s", code, wantCode, stderr.String())
			}
			if want := results[0].Summary(); stdout.String() != want {
				t.Fatalf("stdout differs from Result.Summary:\n--- driver ---\n%s--- runner ---\n%s", stdout.String(), want)
			}
			got, err := os.ReadFile(reportPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantReport) {
				t.Fatalf("-report differs from BuildReport:\n--- driver ---\n%s\n--- runner ---\n%s", got, wantReport)
			}
		})
	}
}

// writeTextTrace stores evs as a text trace in dir and returns its path.
func writeTextTrace(t *testing.T, dir string, evs []trace.Event) string {
	t.Helper()
	path := filepath.Join(dir, "trace.txt")
	tf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := trace.NewTextWriter(tf)
	for i := range evs {
		if err := tw.Emit(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildChecker generates the checker for f into dir and builds it into a
// binary, returning the binary's path. A real binary (rather than `go run`)
// keeps the checker's own exit status visible.
func buildChecker(t *testing.T, dir, name string, f *Formula) string {
	t.Helper()
	src, err := GenerateGo(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	mainPath := filepath.Join(dir, name+".go")
	if err := os.WriteFile(mainPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, mainPath)
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
