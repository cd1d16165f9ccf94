package loc

import (
	"fmt"
	"sort"
	"strings"
)

// Static analysis of parsed formulas — the LOC front of nepvet, surfaced
// as locheck -lint and run by locgen before codegen. Lint mirrors the
// paper's analyze-then-generate flow: every finding is positioned in the
// formula source and reported before any checker is generated or any
// trace is read. Unlike Analyze (which stops at the first semantic error
// because compilation cannot proceed), Lint keeps going and returns every
// finding.

// Lint rule IDs.
const (
	LintUnknownAnn = "loc/unknown-ann" // annotation absent from the trace schema
	LintWindow     = "loc/window"      // inferred retention exceeds the runner limit
	LintAbsIndex   = "loc/abs-index"   // negative absolute event index
	LintConstRel   = "loc/const-rel"   // relation constant-folds to true/false
	LintDivZero    = "loc/div-zero"    // division by a constant zero
	LintNoEvents   = "loc/no-events"   // formula references no trace events
	LintPeriod     = "loc/period"      // malformed analysis period
	LintParse      = "loc/parse"       // source does not parse

	// Semantic rules, reported by the analyzer (AnalyzeFile/AnalyzeFormula).
	LintVacuous       = "loc/vacuous"       // formula can never fire against the event schema
	LintTautology     = "loc/tautology"     // relation always holds; the assertion cannot fail
	LintContradiction = "loc/contradiction" // relation (or formula pair) can never hold
	LintSubsumed      = "loc/subsumed"      // relation implied by another formula in the file
)

// LintMaxWindow is the per-event history span beyond which Lint considers
// the streaming window effectively unbounded. It equals the runner's
// default retention limit (RunnerOptions.MaxWindow), so a formula that
// lints clean also runs within default memory bounds.
const LintMaxWindow = 1 << 22

// LintDiag is one LOC lint finding.
type LintDiag struct {
	Pos  Pos
	Rule string
	Msg  string
}

func (d LintDiag) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Msg)
}

// Lint statically analyzes one formula against an annotation schema (nil
// skips annotation-name checking, as in Analyze). Findings come back
// sorted by position.
func Lint(f *Formula, schema map[string]bool) []LintDiag {
	var diags []LintDiag
	report := func(pos Pos, rule, format string, args ...any) {
		diags = append(diags, LintDiag{Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}

	if f.Kind == KindDist {
		if err := checkPeriod(f.Period); err != nil {
			report(f.Pos, LintPeriod, "%v", err)
		}
	}

	// Annotation references: schema membership (with suggestions) plus
	// per-event window inference, deduplicated so one typo'd annotation
	// used five times reports once per distinct reference.
	refs, first, windows, usesIndexVar := inferRefs(f)
	for _, n := range first {
		if schema != nil && !schema[n.Ann] {
			msg := fmt.Sprintf("unknown annotation %q (trace schema has %s)", n.Ann, schemaList(schema))
			if sugg := didYouMean(n.Ann, schema); sugg != "" {
				msg = fmt.Sprintf("unknown annotation %q (did you mean %q?)", n.Ann, sugg)
			}
			report(n.Pos, LintUnknownAnn, "%s", msg)
		}
		if !n.Index.Rel && n.Index.Offset < 0 {
			report(n.Pos, LintAbsIndex, "absolute event index must be non-negative, got %d", n.Index.Offset)
		}
	}
	if len(refs) == 0 {
		report(f.Pos, LintNoEvents, "formula references no trace events; nothing to check")
	}
	if len(refs) > 0 && usesIndexVar && !hasRel(windows) {
		report(f.Pos, LintWindow,
			"formula uses the instance index i but no relative event reference; the instance stream is unbounded")
	}
	events := make([]string, 0, len(windows))
	for e := range windows {
		events = append(events, e)
	}
	sort.Strings(events)
	for _, e := range events {
		w := windows[e]
		if n := w.Retention(); n > LintMaxWindow {
			why := fmt.Sprintf("offsets %+d..%+d", w.MinOff, w.MaxOff)
			if len(w.AbsIndices) > 0 {
				why += fmt.Sprintf(", largest absolute index %d", w.AbsIndices[len(w.AbsIndices)-1])
			}
			report(f.Pos, LintWindow,
				"formula must retain %d instances of event %q (%s); exceeds the runner's default retention limit %d",
				n, e, why, int64(LintMaxWindow))
		}
	}

	// Constant-folding findings, computed on the folded formula so they
	// see through arithmetic like "10 * 5 - 50". Positions come from the
	// folded nodes, which preserve the source position of their root.
	folded := FoldFormula(f)
	lintDivZero(folded.LHS, report)
	if f.Kind == KindCheck {
		lintDivZero(folded.RHS, report)
		lc, lok := folded.LHS.(*Num)
		rc, rok := folded.RHS.(*Num)
		if lok && rok {
			report(f.Pos, LintConstRel,
				"relation constant-folds to %v (%g %s %g); the assertion checks nothing",
				f.Rel.Holds(lc.Value, rc.Value), lc.Value, f.Rel, rc.Value)
		}
	}

	sortLintDiags(diags)
	return diags
}

// LintFile parses formula source and lints every formula in it. Parse
// errors are converted into a single diagnostic — positioned like every
// other diagnostic, with the message stripped of its embedded position — so
// callers get one uniform findings stream; the bool result reports whether
// the source parsed (callers distinguishing parse failures from lint
// findings, like locheck's exit codes, need the distinction).
func LintFile(src string, schema map[string]bool) ([]LintDiag, bool) {
	fs, err := ParseFile(src)
	if err != nil {
		return parseDiags(err), false
	}
	var diags []LintDiag
	for _, f := range fs {
		diags = append(diags, Lint(f, schema)...)
	}
	return diags, true
}

func lintDivZero(e Expr, report func(Pos, string, string, ...any)) {
	walkExpr(e, func(e Expr) {
		b, ok := e.(*Binary)
		if !ok || b.Op != '/' {
			return
		}
		if r, ok := b.R.(*Num); ok && r.Value == 0 {
			report(b.Pos, LintDivZero, "division by constant zero yields ±Inf or NaN on every instance")
		}
	})
}

// didYouMean returns the schema annotation closest to name when the edit
// distance is small enough to look like a typo.
func didYouMean(name string, schema map[string]bool) string {
	best, bestDist := "", 3 // suggest only within edit distance 2
	names := make([]string, 0, len(schema))
	for n := range schema {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if d := editDistance(strings.ToLower(name), strings.ToLower(n)); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance over bytes.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
