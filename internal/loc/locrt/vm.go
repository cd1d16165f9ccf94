package locrt

import (
	"fmt"
	"math"
	"strings"
)

// The stack VM. A compiled expression is a flat instruction sequence
// operating on a float64 stack; the same representation is executed
// in-process by the runner and written into generated standalone checkers
// as a literal (which is why it is a first-class, serializable artifact
// rather than a tree walk).

// OpCode is a VM instruction opcode.
type OpCode uint8

// VM opcodes. OpRef pushes the value of reference slot Arg (filled by the
// evaluator per instance); OpIndex pushes the current instance index.
const (
	OpConst OpCode = iota // push Val
	OpRef                 // push refs[Arg]
	OpIndex               // push float64(i)
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpAbs
	OpMin
	OpMax
)

var opNames = map[OpCode]string{
	OpConst: "const", OpRef: "ref", OpIndex: "index",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpNeg: "neg",
	OpAbs: "abs", OpMin: "min", OpMax: "max",
}

func (o OpCode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OpCode(%d)", int(o))
}

// Instr is one VM instruction.
type Instr struct {
	Op  OpCode
	Arg int     // slot index for OpRef
	Val float64 // literal for OpConst
}

// Program is a compiled expression: a straight-line instruction sequence
// leaving exactly one value on the stack.
type Program struct {
	Code     []Instr
	MaxStack int
}

// Disasm renders the program for debugging.
func (p *Program) Disasm() string {
	var b strings.Builder
	for k, in := range p.Code {
		switch in.Op {
		case OpConst:
			fmt.Fprintf(&b, "%3d  const %g\n", k, in.Val)
		case OpRef:
			fmt.Fprintf(&b, "%3d  ref   #%d\n", k, in.Arg)
		default:
			fmt.Fprintf(&b, "%3d  %s\n", k, in.Op)
		}
	}
	return b.String()
}

// Eval executes the program. refs[k] must hold the current value of
// reference slot k; i is the instance index. The stack slice is scratch
// space (grown as needed) so hot evaluation loops do not allocate.
func (p *Program) Eval(refs []float64, i int64, stack []float64) (float64, []float64) {
	if cap(stack) < p.MaxStack {
		stack = make([]float64, 0, p.MaxStack)
	}
	stack = stack[:0]
	for _, in := range p.Code {
		switch in.Op {
		case OpConst:
			stack = append(stack, in.Val)
		case OpRef:
			stack = append(stack, refs[in.Arg])
		case OpIndex:
			stack = append(stack, float64(i))
		case OpNeg:
			stack[len(stack)-1] = -stack[len(stack)-1]
		case OpAbs:
			if v := stack[len(stack)-1]; v < 0 {
				stack[len(stack)-1] = -v
			}
		default:
			r := stack[len(stack)-1]
			l := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			switch in.Op {
			case OpAdd:
				stack[len(stack)-1] = l + r
			case OpSub:
				stack[len(stack)-1] = l - r
			case OpMul:
				stack[len(stack)-1] = l * r
			case OpDiv:
				stack[len(stack)-1] = l / r
			case OpMin:
				if r < l {
					stack[len(stack)-1] = r
				}
			case OpMax:
				if r > l {
					stack[len(stack)-1] = r
				}
			}
		}
	}
	return stack[0], stack
}

// RelOp is a relational operator for checker formulas.
type RelOp int

// Relational operators.
const (
	OpLE RelOp = iota
	OpLT
	OpGE
	OpGT
	OpEQ
	OpNE
)

var relNames = map[RelOp]string{OpLE: "<=", OpLT: "<", OpGE: ">=", OpGT: ">", OpEQ: "==", OpNE: "!="}

func (r RelOp) String() string { return relNames[r] }

// Holds evaluates the operator on concrete values.
func (r RelOp) Holds(l, rv float64) bool {
	switch r {
	case OpLE:
		return l <= rv
	case OpLT:
		return l < rv
	case OpGE:
		return l >= rv
	case OpGT:
		return l > rv
	case OpEQ:
		return l == rv
	case OpNE:
		return l != rv
	}
	return false
}

// deviation measures how badly a violation misses its relation: the margin
// by which the comparison failed. Larger is worse; equality relations fall
// back to the magnitude gap (zero for !=, where every violation is equally
// wrong and the earliest wins).
func (r RelOp) deviation(lhs, rhs float64) float64 {
	switch r {
	case OpLE, OpLT:
		return lhs - rhs
	case OpGE, OpGT:
		return rhs - lhs
	}
	return math.Abs(lhs - rhs)
}
