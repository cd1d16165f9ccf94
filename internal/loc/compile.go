package loc

import "nepdvs/internal/loc/locrt"

// Compiled is a fully compiled formula ready for streaming evaluation.
type Compiled struct {
	Analysis *Analysis
	LHS      *locrt.Program
	RHS      *locrt.Program // nil for distribution formulas
}

// Compile analyzes and compiles a formula, folding constant subexpressions
// first. schema may be nil (see Analyze).
func Compile(f *Formula, schema map[string]bool) (*Compiled, error) {
	a, err := Analyze(f, schema)
	if err != nil {
		return nil, err
	}
	slots := make(map[Ref]int, len(a.Refs))
	for k, r := range a.Refs {
		slots[r] = k
	}
	folded := FoldFormula(f)
	c := &Compiled{Analysis: a}
	c.LHS = compileExpr(folded.LHS, slots)
	if f.Kind == KindCheck {
		c.RHS = compileExpr(folded.RHS, slots)
	}
	return c, nil
}

func compileExpr(e Expr, slots map[Ref]int) *locrt.Program {
	p := &locrt.Program{}
	depth, maxDepth := 0, 0
	push := func(in locrt.Instr, net int) {
		p.Code = append(p.Code, in)
		depth += net
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	var emit func(Expr)
	emit = func(e Expr) {
		switch n := e.(type) {
		case *Num:
			push(locrt.Instr{Op: locrt.OpConst, Val: n.Value}, 1)
		case *IndexVar:
			push(locrt.Instr{Op: locrt.OpIndex}, 1)
		case *AnnRef:
			r := Ref{Ann: n.Ann, Event: n.Event, Index: clearPos(n.Index)}
			push(locrt.Instr{Op: locrt.OpRef, Arg: slots[r]}, 1)
		case *Unary:
			emit(n.X)
			push(locrt.Instr{Op: locrt.OpNeg}, 0)
		case *Binary:
			emit(n.L)
			emit(n.R)
			op := map[byte]locrt.OpCode{'+': locrt.OpAdd, '-': locrt.OpSub, '*': locrt.OpMul, '/': locrt.OpDiv}[n.Op]
			push(locrt.Instr{Op: op}, -1)
		case *Call:
			for _, a := range n.Args {
				emit(a)
			}
			switch n.Fn {
			case "abs":
				push(locrt.Instr{Op: locrt.OpAbs}, 0)
			case "min":
				push(locrt.Instr{Op: locrt.OpMin}, -1)
			case "max":
				push(locrt.Instr{Op: locrt.OpMax}, -1)
			}
		}
	}
	emit(e)
	p.MaxStack = maxDepth
	return p
}
