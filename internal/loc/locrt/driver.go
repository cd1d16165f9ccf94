package locrt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Main is a generated checker's whole program: it evaluates spec over the
// text trace named by args (or read from stdin), writes the JSON assertion
// report when args hold -report PATH, prints the formula summary to stdout,
// and returns the exit status. newDist builds the histogram of a
// distribution formula over the spec's analysis period.
//
// Exit status: 0 the assertion held (or the distribution was computed), 1
// it was violated or indeterminate, 2 bad arguments, an unreadable or
// malformed trace, or an evaluation error — so no bad input is ever
// reported as a pass.
func Main[D Dist](spec *Spec, newDist func(lo, hi, step float64) (D, error), opts RunnerOptions,
	args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	out, reportPath, err := run(spec, newDist, opts, args, stdin)
	if err == nil && reportPath != "" {
		err = writeReport(reportPath, out, &spec.Analysis)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprint(stdout, out.Summary())
	if out.Check != nil && !out.Check.Passed() {
		return 1
	}
	return 0
}

func run[D Dist](spec *Spec, newDist func(lo, hi, step float64) (D, error), opts RunnerOptions,
	args []string, stdin io.Reader) (*Outcome, string, error) {
	var tracePath, reportPath string
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-report":
			i++
			if i >= len(args) {
				return nil, "", fmt.Errorf("-report needs a path")
			}
			reportPath = args[i]
		case tracePath == "":
			tracePath = args[i]
		default:
			return nil, "", fmt.Errorf("unexpected argument %q", args[i])
		}
	}
	in := stdin
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		in = f
	}
	var dist Dist
	if spec.RHS == nil {
		h, err := newDist(spec.Min, spec.Max, spec.Step)
		if err != nil {
			return nil, "", err
		}
		dist = h
	}
	ev := NewEvaluator(spec, opts, dist)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseTextLine(line)
		if err != nil {
			return nil, "", fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if err := ev.Emit(&rec); err != nil {
			return nil, "", err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	return ev.Outcome(), reportPath, nil
}

func writeReport(path string, out *Outcome, a *ReportAnalysis) error {
	rep := &Report{Schema: ReportSchema, Formulas: []FormulaReport{out.Section(a)}}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// parseTextLine parses one event line of the text trace format:
//
//	cycle time energy total_pkt total_bit event [key=value ...]
//
// The cycle and packet/bit totals are unsigned integers; time, energy and
// extra values are floats.
func parseTextLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 6 {
		return Event{}, fmt.Errorf("want at least 6 fields, got %d in %q", len(fields), line)
	}
	var ev Event
	var err error
	if ev.Cycle, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad cycle %q: %v", fields[0], err)
	}
	if ev.Time, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return Event{}, fmt.Errorf("bad time %q: %v", fields[1], err)
	}
	if ev.Energy, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return Event{}, fmt.Errorf("bad energy %q: %v", fields[2], err)
	}
	if ev.TotalPkt, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad total_pkt %q: %v", fields[3], err)
	}
	if ev.TotalBit, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad total_bit %q: %v", fields[4], err)
	}
	ev.Name = fields[5]
	for _, f := range fields[6:] {
		k, vs, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return Event{}, fmt.Errorf("bad extra annotation %q", f)
		}
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad extra annotation value %q: %v", f, err)
		}
		if ev.Extra == nil {
			ev.Extra = make(map[string]float64, 2)
		}
		ev.Extra[k] = v
	}
	return ev, nil
}
