package ir

import (
	"strings"
	"testing"
)

// diamond builds the canonical partially-redundant diamond:
//
//	entry: br c then else
//	then:  x = a + b
//	else:  (nothing)
//	join:  y = a + b; ret y
func diamond(t *testing.T) *Function {
	t.Helper()
	f, err := NewBuilder("diamond", "a", "b", "c").
		Block("entry").Branch(Var("c"), "then", "else").
		Block("then").BinOp("x", Add, Var("a"), Var("b")).Jump("join").
		Block("else").Jump("join").
		Block("join").BinOp("y", Add, Var("a"), Var("b")).Ret(Var("y")).
		Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{Add, 2, 3, 5},
		{Sub, 2, 3, -1},
		{Mul, 4, 3, 12},
		{Div, 7, 2, 3},
		{Div, 7, 0, 0},
		{Mod, 7, 4, 3},
		{Mod, 7, 0, 0},
		{Eq, 3, 3, 1},
		{Eq, 3, 4, 0},
		{Ne, 3, 4, 1},
		{Lt, 1, 2, 1},
		{Le, 2, 2, 1},
		{Gt, 2, 1, 1},
		{Ge, 1, 2, 0},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%d %s %d = %d, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestOpStringRoundTrip(t *testing.T) {
	for _, op := range Ops() {
		got, ok := OpFromString(op.String())
		if !ok || got != op {
			t.Errorf("OpFromString(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpFromString("**"); ok {
		t.Error("OpFromString accepted bogus operator")
	}
	if Op(99).String() == "" {
		t.Error("out-of-range Op has empty String")
	}
	if Op(99).Valid() {
		t.Error("Op(99) claims valid")
	}
}

func TestOperands(t *testing.T) {
	v := Var("x")
	c := Const(-7)
	if !v.IsVar() || v.IsConst() || v.String() != "x" {
		t.Errorf("Var misbehaves: %+v", v)
	}
	if !c.IsConst() || c.IsVar() || c.String() != "-7" {
		t.Errorf("Const misbehaves: %+v", c)
	}
	if !v.Uses("x") || v.Uses("y") || c.Uses("x") {
		t.Error("Uses misbehaves")
	}
}

func TestVarEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Var(\"\") did not panic")
		}
	}()
	Var("")
}

func TestExpr(t *testing.T) {
	e := Expr{Op: Add, A: Var("a"), B: Const(1)}
	if e.String() != "a + 1" {
		t.Errorf("Expr.String = %q", e.String())
	}
	if !e.UsesVar("a") || e.UsesVar("b") {
		t.Error("UsesVar misbehaves")
	}
	vs := e.Vars(nil)
	if len(vs) != 1 || vs[0] != "a" {
		t.Errorf("Vars = %v", vs)
	}
	// Expr must be usable as a map key.
	m := map[Expr]int{e: 1}
	if m[Expr{Op: Add, A: Var("a"), B: Const(1)}] != 1 {
		t.Error("Expr not comparable by value")
	}
}

func TestInstrAccessors(t *testing.T) {
	bin := NewBinOp("x", Mul, Var("a"), Var("b"))
	if e, ok := bin.Expr(); !ok || e.String() != "a * b" {
		t.Errorf("Expr() = %v, %v", e, ok)
	}
	if bin.Defs() != "x" {
		t.Errorf("Defs = %q", bin.Defs())
	}
	if got := bin.UsedVars(nil); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("UsedVars = %v", got)
	}
	cp := NewCopy("y", Const(3))
	if _, ok := cp.Expr(); ok {
		t.Error("Copy has an Expr")
	}
	if cp.Defs() != "y" || len(cp.UsedVars(nil)) != 0 {
		t.Error("Copy accessors wrong")
	}
	pr := NewPrint(Var("z"))
	if pr.Defs() != "" || len(pr.UsedVars(nil)) != 1 {
		t.Error("Print accessors wrong")
	}
	if NewNop().String() != "nop" {
		t.Error("Nop string")
	}
	if bin.String() != "x = a * b" {
		t.Errorf("BinOp string = %q", bin.String())
	}
	if cp.String() != "y = 3" {
		t.Errorf("Copy string = %q", cp.String())
	}
	if pr.String() != "print z" {
		t.Errorf("Print string = %q", pr.String())
	}
}

func TestBuilderDiamond(t *testing.T) {
	f := diamond(t)
	if f.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d", f.NumBlocks())
	}
	entry := f.Entry()
	if entry.Name != "entry" || entry.NumSuccs() != 2 {
		t.Fatalf("entry wrong: %v", entry)
	}
	join := f.BlockByName("join")
	if len(join.Preds()) != 2 {
		t.Fatalf("join preds = %d", len(join.Preds()))
	}
	if got := f.BlockByName("then").Succ(0); got != join {
		t.Fatalf("then succ = %v", got)
	}
	if f.NumInstrs() != 2 {
		t.Fatalf("NumInstrs = %d", f.NumInstrs())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("f").Block("a").Jump("nowhere").Finish(); err == nil {
		t.Error("undefined jump target accepted")
	}
	if _, err := NewBuilder("f").Block("a").Finish(); err == nil {
		t.Error("missing terminator accepted")
	}
	if _, err := NewBuilder("f").Block("a").RetVoid().Block("a").RetVoid().Finish(); err == nil {
		t.Error("duplicate block accepted")
	}
	if _, err := NewBuilder("f").Block("a").RetVoid().Block("b").RetVoid().Finish(); err == nil {
		t.Error("unreachable block accepted")
	}
	bd := NewBuilder("f").Block("a").RetVoid()
	bd.Copy("x", Const(1)) // statement after terminator
	if _, err := bd.Finish(); err == nil {
		t.Error("statement after terminator accepted")
	}
	if _, err := NewBuilder("f").Block("a").Branch(Var("c"), "a", "missing").Finish(); err == nil {
		t.Error("branch to undefined block accepted")
	}
}

func TestMustFinishPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFinish did not panic on invalid function")
		}
	}()
	NewBuilder("f").Block("a").Jump("nowhere").MustFinish()
}

func TestValidateInfiniteLoopRejected(t *testing.T) {
	// A loop with no path to ret violates the paper's model.
	bd := NewBuilder("f").
		Block("entry").Jump("loop").
		Block("loop").Jump("loop")
	if _, err := bd.Finish(); err == nil || !strings.Contains(err.Error(), "cannot reach any return") {
		t.Errorf("infinite loop accepted: %v", err)
	}
}

func TestValidateStaleID(t *testing.T) {
	f := diamond(t)
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	if err := f.Validate(); err == nil {
		t.Error("stale IDs accepted")
	}
	f.Recompute()
	if err := f.Validate(); err != nil {
		t.Errorf("Validate after Recompute: %v", err)
	}
}

func TestFreshNames(t *testing.T) {
	f := diamond(t)
	if got := f.FreshBlockName("split"); got != "split" {
		t.Errorf("FreshBlockName = %q", got)
	}
	if got := f.FreshBlockName("join"); got == "join" {
		t.Error("FreshBlockName returned used name")
	}
	if got := f.FreshVarName("h"); got != "h" {
		t.Errorf("FreshVarName = %q", got)
	}
	if got := f.FreshVarName("a"); got == "a" {
		t.Error("FreshVarName returned used name")
	}
	if got := f.FreshVarName("x"); got == "x" {
		t.Error("FreshVarName returned defined name")
	}
}

func TestVars(t *testing.T) {
	f := diamond(t)
	got := strings.Join(f.Vars(), ",")
	if got != "a,b,c,x,y" {
		t.Errorf("Vars = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := diamond(t)
	g := f.Clone()
	if g.String() != f.String() {
		t.Fatalf("clone differs:\n%s\nvs\n%s", g, f)
	}
	g.BlockByName("then").Instrs[0] = NewCopy("x", Const(0))
	if f.String() == g.String() {
		t.Fatal("clone shares instruction storage")
	}
	// Clone terminators must point at clone blocks.
	for _, b := range g.Blocks {
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			s := b.Succ(i)
			if f.BlockByName(s.Name) == s {
				t.Fatal("clone terminator points into original")
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAt(t *testing.T) {
	b := &Block{Name: "b"}
	b.Append(NewCopy("x", Const(1)))
	b.Append(NewCopy("y", Const(2)))
	b.InsertAt(1, NewNop())
	if len(b.Instrs) != 3 || b.Instrs[1].Kind != Nop {
		t.Fatalf("InsertAt middle: %v", b.Instrs)
	}
	b.InsertAt(0, NewPrint(Const(9)))
	if b.Instrs[0].Kind != Print {
		t.Fatal("InsertAt front")
	}
	b.InsertAt(len(b.Instrs), NewNop())
	if b.Instrs[len(b.Instrs)-1].Kind != Nop {
		t.Fatal("InsertAt end")
	}
}

func TestSetSucc(t *testing.T) {
	f := diamond(t)
	entry := f.Entry()
	then := f.BlockByName("then")
	entry.SetSucc(1, then) // both arms to then
	f.Recompute()
	if entry.Succ(1) != then {
		t.Fatal("SetSucc failed")
	}
	if len(then.Preds()) != 1 { // one pred block, even with two edges? No: preds lists blocks per edge
		// Recompute appends per edge, so then has entry twice.
		t.Logf("preds = %d (per-edge semantics)", len(then.Preds()))
	}
}

func TestStringFormat(t *testing.T) {
	f := diamond(t)
	s := f.String()
	for _, want := range []string{
		"func diamond(a, b, c) {",
		"entry:",
		"  br c then else",
		"  x = a + b",
		"  jmp join",
		"  ret y",
		"}",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestTerminatorString(t *testing.T) {
	tm := Terminator{Kind: Ret}
	if tm.String() != "ret" {
		t.Errorf("bare ret = %q", tm.String())
	}
	tm = Terminator{Kind: Jump}
	if !strings.Contains(tm.String(), "<nil>") {
		t.Errorf("nil jump = %q", tm.String())
	}
}

func TestTerminatorUsedVars(t *testing.T) {
	br := Terminator{Kind: Branch, Cond: Var("c")}
	if got := br.UsedVars(nil); len(got) != 1 || got[0] != "c" {
		t.Errorf("branch UsedVars = %v", got)
	}
	rv := Terminator{Kind: Ret, HasVal: true, Val: Var("r")}
	if got := rv.UsedVars(nil); len(got) != 1 || got[0] != "r" {
		t.Errorf("ret UsedVars = %v", got)
	}
	if got := (Terminator{Kind: Ret}).UsedVars(nil); len(got) != 0 {
		t.Errorf("void ret UsedVars = %v", got)
	}
}

// TestBuilderErrorStrings pins the builder's diagnostics word for word,
// and the name resolution behind them: a statement before any block opens
// an implicit "entry" block, and the first block of a name is the one
// later references resolve to.
func TestBuilderErrorStrings(t *testing.T) {
	finishErr := func(bd *Builder) string {
		t.Helper()
		_, err := bd.Finish()
		if err == nil {
			t.Fatal("Finish accepted an invalid function")
		}
		return err.Error()
	}
	for _, c := range []struct {
		bd   *Builder
		want string
	}{
		{NewBuilder("f").Block("a").RetVoid().Block("a").RetVoid(),
			`builder f: block "a" declared twice`},
		{NewBuilder("f").Block("a").Jump("nowhere"),
			`builder f: block "a" jumps to undefined block "nowhere"`},
		{NewBuilder("f").Block("a").Branch(Var("c"), "a", "missing"),
			`builder f: block "a" branches to undefined block`},
		{NewBuilder("f").Block("a").Jump("b").Block("b"),
			`builder f: block "b" has no terminator`},
		// Unresolved targets are reported in block order.
		{NewBuilder("f").Block("a").Branch(Var("c"), "b", "c").
			Block("b").Jump("gone1").Block("c").Jump("gone2"),
			`builder f: block "b" jumps to undefined block "gone1"`},
	} {
		if got := finishErr(c.bd); got != c.want {
			t.Errorf("error = %q, want %q", got, c.want)
		}
	}

	bd := NewBuilder("f")
	bd.Copy("x", Const(1)).RetVoid()
	if got, want := finishErr(bd), `builder f: statement before any block`; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
	if len(bd.fn.Blocks) != 1 || bd.fn.Blocks[0].Name != "entry" || len(bd.fn.Blocks[0].Instrs) != 1 {
		t.Errorf("implicit block = %s", bd.fn)
	}

	// A statement after a terminator opens a second "entry" block; the
	// name still resolves to the first one, which is already terminated.
	bd = NewBuilder("f").Block("entry").RetVoid()
	bd.Copy("x", Const(1))
	bd.Block("entry")
	if len(bd.errs) != 2 || bd.errs[1].Error() != `builder f: block "entry" declared twice` {
		t.Errorf("errors = %v", bd.errs)
	}
	if len(bd.fn.Blocks) != 2 || bd.cur != bd.fn.Blocks[0] {
		t.Errorf("entry resolved to the wrong block: %d blocks", len(bd.fn.Blocks))
	}
}
