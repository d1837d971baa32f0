package ir

import (
	"fmt"
	"strconv"
)

// InstrKind discriminates the elementary statement forms.
type InstrKind int

const (
	// BinOp is v = a ⊕ b, the only statement form that computes a candidate
	// expression.
	BinOp InstrKind = iota
	// Copy is v = a for a variable or constant a.
	Copy
	// Print emits the value of its operand; it is the observable effect the
	// interpreter compares across transformations.
	Print
	// Nop does nothing. Synthetic blocks created by critical-edge splitting
	// and code-motion insertions start out as Nops in some intermediate
	// states; Nops are also legal input.
	Nop
)

// String names the instruction kind.
func (k InstrKind) String() string {
	switch k {
	case BinOp:
		return "binop"
	case Copy:
		return "copy"
	case Print:
		return "print"
	case Nop:
		return "nop"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Instr is one elementary statement.
type Instr struct {
	Kind InstrKind
	// Dst is the assigned variable for BinOp and Copy.
	Dst string
	// Op is the operator for BinOp.
	Op Op
	// A is the first operand for BinOp, the source for Copy, and the
	// printed value for Print.
	A Operand
	// B is the second operand for BinOp.
	B Operand
}

// NewBinOp returns the statement dst = a op b.
func NewBinOp(dst string, op Op, a, b Operand) Instr {
	return Instr{Kind: BinOp, Dst: dst, Op: op, A: a, B: b}
}

// NewCopy returns the statement dst = src.
func NewCopy(dst string, src Operand) Instr {
	return Instr{Kind: Copy, Dst: dst, A: src}
}

// NewPrint returns the statement print v.
func NewPrint(v Operand) Instr { return Instr{Kind: Print, A: v} }

// NewNop returns a no-op statement.
func NewNop() Instr { return Instr{Kind: Nop} }

// Expr returns the candidate expression the instruction computes and true,
// or a zero Expr and false if the instruction computes none. Only BinOp
// statements compute candidate expressions.
func (in Instr) Expr() (Expr, bool) {
	if in.Kind != BinOp {
		return Expr{}, false
	}
	return Expr{Op: in.Op, A: in.A, B: in.B}, true
}

// Defs returns the variable the instruction assigns, or "" if none.
func (in Instr) Defs() string {
	if in.Kind == BinOp || in.Kind == Copy {
		return in.Dst
	}
	return ""
}

// UsedVars appends the variables the instruction reads to dst and returns it.
func (in Instr) UsedVars(dst []string) []string {
	switch in.Kind {
	case BinOp:
		if in.A.IsVar() {
			dst = append(dst, in.A.Name)
		}
		if in.B.IsVar() {
			dst = append(dst, in.B.Name)
		}
	case Copy, Print:
		if in.A.IsVar() {
			dst = append(dst, in.A.Name)
		}
	}
	return dst
}

// String returns the statement's source form.
func (in Instr) String() string { return string(in.AppendText(nil)) }

// AppendText appends the statement's source form to buf and returns it.
func (in Instr) AppendText(buf []byte) []byte {
	switch in.Kind {
	case BinOp:
		buf = append(buf, in.Dst...)
		buf = append(buf, " = "...)
		buf = in.A.AppendText(buf)
		buf = append(buf, ' ')
		buf = in.Op.AppendText(buf)
		buf = append(buf, ' ')
		return in.B.AppendText(buf)
	case Copy:
		buf = append(buf, in.Dst...)
		buf = append(buf, " = "...)
		return in.A.AppendText(buf)
	case Print:
		buf = append(buf, "print "...)
		return in.A.AppendText(buf)
	case Nop:
		return append(buf, "nop"...)
	}
	buf = append(buf, "<invalid instr kind "...)
	buf = strconv.AppendInt(buf, int64(in.Kind), 10)
	return append(buf, '>')
}

// TermKind discriminates block terminators.
type TermKind int

const (
	// Jump transfers to a single successor.
	Jump TermKind = iota
	// Branch transfers to Then if Cond is nonzero, else to Else.
	Branch
	// Ret ends the function, optionally yielding a value.
	Ret
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	// Cond is the branch condition (Branch only).
	Cond Operand
	// Then and Else are the successors: Jump uses Then only.
	Then, Else *Block
	// HasVal reports whether Ret carries a value.
	HasVal bool
	// Val is the returned value when HasVal (Ret only).
	Val Operand
}

// UsedVars appends the variables the terminator reads to dst and returns it.
func (t Terminator) UsedVars(dst []string) []string {
	if t.Kind == Branch && t.Cond.IsVar() {
		dst = append(dst, t.Cond.Name)
	}
	if t.Kind == Ret && t.HasVal && t.Val.IsVar() {
		dst = append(dst, t.Val.Name)
	}
	return dst
}

// String returns the terminator's source form.
func (t Terminator) String() string { return string(t.AppendText(nil)) }

// AppendText appends the terminator's source form to buf and returns it.
func (t Terminator) AppendText(buf []byte) []byte {
	switch t.Kind {
	case Jump:
		buf = append(buf, "jmp "...)
		return append(buf, blockName(t.Then)...)
	case Branch:
		buf = append(buf, "br "...)
		buf = t.Cond.AppendText(buf)
		buf = append(buf, ' ')
		buf = append(buf, blockName(t.Then)...)
		buf = append(buf, ' ')
		return append(buf, blockName(t.Else)...)
	case Ret:
		if t.HasVal {
			buf = append(buf, "ret "...)
			return t.Val.AppendText(buf)
		}
		return append(buf, "ret"...)
	}
	buf = append(buf, "<invalid terminator kind "...)
	buf = strconv.AppendInt(buf, int64(t.Kind), 10)
	return append(buf, '>')
}

func blockName(b *Block) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}
