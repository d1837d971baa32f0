package graph

import (
	"fmt"
	"testing"

	"lazycm/internal/ir"
	"lazycm/internal/randprog"
)

// splitReference is SplitCriticalEdges as it was when every split block
// rebuilt the set of used names and formatted candidates with fmt: the
// reference the one-set-per-call version must name blocks identically
// to, since split-block names end up in printed output and cache keys.
func splitReference(f *ir.Function) int {
	fresh := func(prefix string) string {
		used := make(map[string]bool, len(f.Blocks))
		for _, b := range f.Blocks {
			used[b.Name] = true
		}
		if !used[prefix] {
			return prefix
		}
		for i := 1; ; i++ {
			n := fmt.Sprintf("%s%d", prefix, i)
			if !used[n] {
				return n
			}
		}
	}
	crit := CriticalEdges(f)
	for _, e := range crit {
		to := e.To()
		nb := f.AddBlock(fresh(e.From.Name + "." + to.Name + ".split"))
		nb.Term = ir.Terminator{Kind: ir.Jump, Then: to}
		e.From.SetSucc(e.Index, nb)
	}
	f.Recompute()
	return len(crit)
}

func checkSplitMatchesReference(t *testing.T, label string, f *ir.Function) {
	t.Helper()
	want := f.Clone()
	nWant := splitReference(want)
	if n := SplitCriticalEdges(f); n != nWant {
		t.Fatalf("%s: split %d edges, reference %d", label, n, nWant)
	}
	if got, want := f.String(), want.String(); got != want {
		t.Fatalf("%s: split differs from reference\ngot:\n%s\nwant:\n%s", label, got, want)
	}
}

// TestSplitNamesAvoidTakenNames: when the natural split names are taken,
// new split blocks continue the prefix1, prefix2, … sequence, and two
// critical edges between the same pair of blocks get distinct names.
func TestSplitNamesAvoidTakenNames(t *testing.T) {
	build := func() *ir.Function {
		return mustBuild(t, ir.NewBuilder("taken", "c").
			Block("entry").Branch(ir.Var("c"), "a", "x").
			Block("a").Branch(ir.Var("c"), "b", "b").
			Block("x").Branch(ir.Var("c"), "a.b.split", "a.b.split1").
			Block("a.b.split").Jump("b").
			Block("a.b.split1").Jump("b").
			Block("b").RetVoid())
	}
	f := build()
	if n := SplitCriticalEdges(f); n != 2 {
		t.Fatalf("split %d edges, want 2", n)
	}
	if got, want := names(f.Blocks), "entry a x a.b.split a.b.split1 b a.b.split2 a.b.split3"; got != want {
		t.Errorf("blocks after split = %q, want %q", got, want)
	}
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}
	checkSplitMatchesReference(t, "taken", build())
}

func TestSplitNamesMatchReferenceOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkSplitMatchesReference(t, fmt.Sprintf("seed %d", seed), randprog.ForSeed(seed))
	}
}
