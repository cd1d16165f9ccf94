package loc

// Constant folding: formulas written by hand (or generated by templates
// like core.ThroughputFormula) often contain constant subexpressions such
// as "/ 1000000 / (x / 1000000)". Folding them shrinks the VM programs that
// run once per formula instance over multi-million-event traces.
//
// Folding is exact: a constant subexpression is evaluated by the VM itself,
// so the folded value is bit-for-bit what the program would compute at run
// time, including ±Inf and NaN results (property-tested).

// Fold returns an expression with all constant subexpressions evaluated.
// The input is not modified; subtrees with nothing to fold are shared.
func Fold(e Expr) Expr {
	switch n := e.(type) {
	case *Unary:
		if x := Fold(n.X); x != n.X || isConst(x) {
			return foldConst(&Unary{X: x, Pos: n.Pos}, n.Pos, x)
		}
	case *Binary:
		if l, r := Fold(n.L), Fold(n.R); l != n.L || r != n.R || isConst(l, r) {
			return foldConst(&Binary{Op: n.Op, L: l, R: r, Pos: n.Pos}, n.Pos, l, r)
		}
	case *Call:
		args := make([]Expr, len(n.Args))
		changed := false
		for k, a := range n.Args {
			args[k] = Fold(a)
			changed = changed || args[k] != a
		}
		if changed || isConst(args...) {
			return foldConst(&Call{Fn: n.Fn, Args: args, Pos: n.Pos}, n.Pos, args...)
		}
	}
	return e
}

// foldConst replaces e by its value when every operand is a constant.
func foldConst(e Expr, pos Pos, operands ...Expr) Expr {
	if !isConst(operands...) {
		return e
	}
	v, _ := compileExpr(e, nil).Eval(nil, 0, nil)
	return &Num{Value: v, Pos: pos}
}

func isConst(es ...Expr) bool {
	for _, e := range es {
		if _, ok := e.(*Num); !ok {
			return false
		}
	}
	return true
}

// FoldFormula returns a formula with both sides folded.
func FoldFormula(f *Formula) *Formula {
	out := *f
	out.LHS = Fold(f.LHS)
	if f.Kind == KindCheck {
		out.RHS = Fold(f.RHS)
	}
	return &out
}
