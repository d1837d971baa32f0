package ir_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/randprog"
	"lazycm/internal/textir"
)

// fmtFunction is the fmt-based renderer Function.String used before the
// printer moved onto AppendText, kept verbatim as the reference the
// printer must match byte for byte: function-granular cache keys hash the
// printed text, so a single changed byte would orphan every cached entry.
func fmtFunction(f *ir.Function) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(%s) {\n", f.Name, strings.Join(f.Params, ", "))
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", fmtInstr(in))
		}
		fmt.Fprintf(&b, "  %s\n", fmtTerm(blk.Term))
	}
	b.WriteString("}\n")
	return b.String()
}

func fmtInstr(in ir.Instr) string {
	switch in.Kind {
	case ir.BinOp:
		return fmt.Sprintf("%s = %s %s %s", in.Dst, in.A, fmtOp(in.Op), in.B)
	case ir.Copy:
		return fmt.Sprintf("%s = %s", in.Dst, in.A)
	case ir.Print:
		return fmt.Sprintf("print %s", in.A)
	case ir.Nop:
		return "nop"
	}
	return fmt.Sprintf("<invalid instr kind %d>", int(in.Kind))
}

// fmtOp is the old Op.String, which formatted invalid operators with fmt.
func fmtOp(o ir.Op) string {
	if !o.Valid() {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return o.String()
}

func fmtTerm(t ir.Terminator) string {
	name := func(b *ir.Block) string {
		if b == nil {
			return "<nil>"
		}
		return b.Name
	}
	switch t.Kind {
	case ir.Jump:
		return fmt.Sprintf("jmp %s", name(t.Then))
	case ir.Branch:
		return fmt.Sprintf("br %s %s %s", t.Cond, name(t.Then), name(t.Else))
	case ir.Ret:
		if t.HasVal {
			return fmt.Sprintf("ret %s", t.Val)
		}
		return "ret"
	}
	return fmt.Sprintf("<invalid terminator kind %d>", int(t.Kind))
}

// checkPrint asserts that String, AppendText (onto a non-empty buffer)
// and the instruction and terminator printers all match the reference.
func checkPrint(t *testing.T, label string, f *ir.Function) {
	t.Helper()
	want := fmtFunction(f)
	if got := f.String(); got != want {
		t.Fatalf("%s: String differs from the fmt reference\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	if got := string(f.AppendText([]byte("prefix"))); got != "prefix"+want {
		t.Fatalf("%s: AppendText does not append to its buffer", label)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if got, want := in.String(), fmtInstr(in); got != want {
				t.Fatalf("%s: Instr.String = %q, want %q", label, got, want)
			}
		}
		if got, want := b.Term.String(), fmtTerm(b.Term); got != want {
			t.Fatalf("%s: Terminator.String = %q, want %q", label, got, want)
		}
	}
}

// checkRoundTrip asserts that the printed text parses back to a function
// that prints identically.
func checkRoundTrip(t *testing.T, label string, f *ir.Function) {
	t.Helper()
	src := f.String()
	g, err := textir.ParseFunction(src)
	if err != nil {
		t.Fatalf("%s: printed text does not parse: %v\n%s", label, err, src)
	}
	if got := g.String(); got != src {
		t.Fatalf("%s: round trip changed the text\ngot:\n%s\nwant:\n%s", label, got, src)
	}
}

func TestPrinterMatchesFmtOnCorpus(t *testing.T) {
	var paths []string
	for _, pat := range []string{"../../testdata/*.ir", "../../testdata/crashers/*.ir"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus files found under ../../testdata")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fns, err := textir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, f := range fns {
			label := p + ":" + f.Name
			checkPrint(t, label, f)
			checkRoundTrip(t, label, f)
		}
	}
}

func TestPrinterMatchesFmtOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		f := randprog.ForSeed(seed)
		label := fmt.Sprintf("seed %d", seed)
		checkPrint(t, label, f)
		checkRoundTrip(t, label, f)
		graph.SplitCriticalEdges(f)
		label += " split"
		checkPrint(t, label, f)
		checkRoundTrip(t, label, f)
	}
}

func TestPrinterMatchesFmtOnHandBuiltCases(t *testing.T) {
	exit := &ir.Block{Name: "exit", Term: ir.Terminator{Kind: ir.Ret, HasVal: true, Val: ir.Const(-1)}}
	body := &ir.Block{Name: "body.exit.split"}
	for i, op := range append(ir.Ops(), ir.Op(-1), ir.Op(99)) {
		body.Instrs = append(body.Instrs, ir.NewBinOp(fmt.Sprintf("t%d", i), op, ir.Var("a"), ir.Const(-int64(i))))
	}
	body.Instrs = append(body.Instrs,
		ir.NewCopy("m", ir.Const(math.MinInt64)),
		ir.NewCopy("n", ir.Const(math.MaxInt64)),
		ir.NewCopy("v", ir.Var("a")),
		ir.NewPrint(ir.Const(-42)),
		ir.NewPrint(ir.Var("v")),
		ir.NewNop(),
		ir.Instr{Kind: ir.InstrKind(7), Dst: "bad"},
		ir.Instr{Kind: ir.InstrKind(-3)},
	)
	body.Term = ir.Terminator{Kind: ir.Branch, Cond: ir.Const(0), Then: exit, Else: nil}
	entry := &ir.Block{Name: "entry", Term: ir.Terminator{Kind: ir.Jump, Then: body}}
	void := &ir.Block{Name: "void", Term: ir.Terminator{Kind: ir.Ret}}
	dangling := &ir.Block{Name: "dangling", Term: ir.Terminator{Kind: ir.Jump}}
	odd := &ir.Block{Name: "odd", Term: ir.Terminator{Kind: ir.TermKind(9)}}
	varRet := &ir.Block{Name: "_r.1", Term: ir.Terminator{Kind: ir.Ret, HasVal: true, Val: ir.Var("v")}}
	empty := &ir.Block{Name: "empty", Term: ir.Terminator{Kind: ir.Branch, Cond: ir.Var("c"), Then: exit, Else: void}}

	for _, f := range []*ir.Function{
		{Name: "hand", Params: []string{"a", "b", "c"}, Blocks: []*ir.Block{entry, body, exit, void, dangling, odd, varRet, empty}},
		{Name: "noparams", Blocks: []*ir.Block{void}},
		{Name: "one", Params: []string{"p"}, Blocks: []*ir.Block{exit}},
		{Name: "noblocks"},
	} {
		checkPrint(t, f.Name, f)
	}

	// The valid subset also round-trips through the parser.
	f := ir.NewBuilder("valid", "a").
		Block("entry").BinOp("x", ir.Mod, ir.Var("a"), ir.Const(-9)).Copy("y", ir.Const(math.MinInt64)).
		Print(ir.Const(-3)).Nop().Branch(ir.Var("x"), "r", "rv").
		Block("r").RetVoid().
		Block("rv").Ret(ir.Const(-5)).
		MustFinish()
	checkPrint(t, f.Name, f)
	checkRoundTrip(t, f.Name, f)
}
