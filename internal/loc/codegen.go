package loc

import (
	"fmt"
	"go/format"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"math"
	"sort"
	"strconv"
	"strings"

	"nepdvs/internal/loc/locrt"
	"nepdvs/internal/stats"
)

// GenerateGo emits a standalone Go program (package main) that checks the
// formula over a text-format trace read from a file argument or stdin. This
// mirrors the paper's flow of generating C trace checkers from LOC
// assertions. The program is the runtime package locrt's own source and
// the stats histogram, spliced into one file, plus the compiled formula as
// a locrt.Spec literal and a main that hands it to locrt.Main. It depends
// only on the Go standard library and runs the in-process runner's code,
// so its summary and -report output match the runner's byte for byte.
func GenerateGo(f *Formula, schema map[string]bool) (string, error) {
	sp, err := checkerSpec(f, schema)
	if err != nil {
		return "", err
	}
	srcs := []string{stats.HistogramSource}
	files, err := fs.ReadDir(locrt.Source, ".")
	if err != nil {
		return "", err
	}
	for _, e := range files {
		b, err := fs.ReadFile(locrt.Source, e.Name())
		if err != nil {
			return "", err
		}
		srcs = append(srcs, string(b))
	}
	imports, body, err := splice(srcs)
	if err != nil {
		return "", err
	}

	src := fmt.Sprintf(`// Code generated by locgen from the LOC formula below; DO NOT EDIT.
//
//	%s
//
// The program reads a text trace (columns: cycle time energy total_pkt
// total_bit event [key=value ...]) from the file named by its first
// argument, or stdin, and prints the formula's summary; -report PATH also
// writes the JSON assertion report. Exit status: 0 pass, 1 violated or
// indeterminate, 2 bad arguments, trace or evaluation.
package main

import (
%s
)
%s
var spec = %s

func main() {
	os.Exit(Main(&spec, NewHistogram, RunnerOptions{}, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
`, f, strings.Join(imports, "\n"), body, specLiteral(sp))
	out, err := format.Source([]byte(src))
	if err != nil {
		return "", fmt.Errorf("loc: formatting generated checker: %v", err)
	}
	return string(out), nil
}

// checkerSpec compiles f into the Spec a generated checker embeds.
func checkerSpec(f *Formula, schema map[string]bool) (*locrt.Spec, error) {
	c, err := Compile(f, schema)
	if err != nil {
		return nil, err
	}
	// Unnamed formulas default to f1, matching the in-process Runner's
	// naming for a single formula.
	name := f.Name
	if name == "" {
		name = "f1"
	}
	sp := runtimeSpec(c, name)
	sp.Source = f.String()
	sp.Analysis = *StaticAnalysis(f)
	return &sp, nil
}

// splice merges Go source files into one declaration list: it drops each
// file's package clause and imports, keeping everything after them, and
// returns the sorted union of the imports (plus "os", which the generated
// main uses).
func splice(srcs []string) (imports []string, body string, err error) {
	seen := map[string]bool{strconv.Quote("os"): true}
	var b strings.Builder
	fset := token.NewFileSet()
	for _, src := range srcs {
		f, err := goparser.ParseFile(fset, "", src, goparser.ImportsOnly)
		if err != nil {
			return nil, "", err
		}
		for _, im := range f.Imports {
			seen[im.Path.Value] = true
		}
		end := f.Name.End()
		if n := len(f.Decls); n > 0 {
			end = f.Decls[n-1].End()
		}
		b.WriteString(src[fset.File(end).Offset(end):])
	}
	for im := range seen {
		imports = append(imports, im)
	}
	sort.Strings(imports)
	return imports, b.String(), nil
}

// specLiteral renders sp as a Go composite literal in the spliced runtime's
// namespace.
func specLiteral(sp *locrt.Spec) string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p("Spec{\nName: %q,\nSource: %q,\nRefs: []Ref{\n", sp.Name, sp.Source)
	for _, r := range sp.Refs {
		p("{Name: %q, Ann: %q, Event: %q, Rel: %t, Off: %d},\n", r.Name, r.Ann, r.Event, r.Rel, r.Off)
	}
	p("},\nLHS: %s,\n", programLiteral(sp.LHS))
	if sp.RHS != nil {
		p("RHS: %s,\nRel: %s,\n", programLiteral(sp.RHS), relConsts[sp.Rel])
	} else {
		p("View: %q,\nMin: %s, Max: %s, Step: %s,\n", sp.View, goFloat(sp.Min), goFloat(sp.Max), goFloat(sp.Step))
	}
	a := sp.Analysis
	p("Analysis: ReportAnalysis{Verdict: %q, Retention: map[string]int64{", a.Verdict)
	for k, ev := range sortedKeys(a.Retention) {
		if k > 0 {
			p(", ")
		}
		p("%q: %d", ev, a.Retention[ev])
	}
	p("}, Exact: %t},\n}", a.Exact)
	return b.String()
}

// relConsts names each relation's constant in the runtime.
var relConsts = map[RelOp]string{OpLE: "OpLE", OpLT: "OpLT", OpGE: "OpGE", OpGT: "OpGT", OpEQ: "OpEQ", OpNE: "OpNE"}

func programLiteral(prog *locrt.Program) string {
	var b strings.Builder
	b.WriteString("&Program{MaxStack: " + strconv.Itoa(prog.MaxStack) + ", Code: []Instr{\n")
	for _, in := range prog.Code {
		op := in.Op.String()
		fmt.Fprintf(&b, "{Op: Op%s%s", strings.ToUpper(op[:1]), op[1:])
		switch in.Op {
		case locrt.OpRef:
			fmt.Fprintf(&b, ", Arg: %d", in.Arg)
		case locrt.OpConst:
			fmt.Fprintf(&b, ", Val: %s", goFloat(in.Val))
		}
		b.WriteString("},\n")
	}
	b.WriteString("}}")
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// goFloat renders v as a Go expression with exactly v's bits.
func goFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "math.NaN()"
	case math.IsInf(v, 0):
		return fmt.Sprintf("math.Inf(%d)", int(math.Copysign(1, v)))
	case v == 0 && math.Signbit(v):
		return "math.Copysign(0, -1)"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
