package verify

import (
	"fmt"
	"sort"
	"testing"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/faultify"
	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/randprog"
)

// tempsDefinedCollect is TempsDefined as it was when it built the node
// graph over the function's full expression universe (props.Collect),
// kept as the reference the empty-universe version must agree with.
func tempsDefinedCollect(f *ir.Function, tempFor map[ir.Expr]string) error {
	if len(tempFor) == 0 {
		return nil
	}
	temps := make([]string, 0, len(tempFor))
	for _, t := range tempFor {
		temps = append(temps, t)
	}
	sort.Strings(temps)
	index := make(map[string]int, len(temps))
	for i, t := range temps {
		index[t] = i
	}

	u := props.Collect(f)
	g := nodes.Build(f, u)
	n := g.NumNodes()
	w := len(temps)
	def := bitvec.NewMatrix(n, w)
	for id, nd := range g.Nodes {
		if nd.Kind != nodes.Stmt {
			continue
		}
		if d := nd.Block.Instrs[nd.Index].Defs(); d != "" {
			if i, ok := index[d]; ok {
				def.Set(id, i)
			}
		}
	}
	res, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "definite-assignment", Dir: dataflow.Forward, Meet: dataflow.Must,
		Width: w, Gen: def, Kill: bitvec.NewMatrix(n, w),
		Boundary: dataflow.BoundaryEmpty,
	})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}

	var scratch []string
	for id, nd := range g.Nodes {
		switch nd.Kind {
		case nodes.Stmt:
			scratch = nd.Block.Instrs[nd.Index].UsedVars(scratch[:0])
		case nodes.Term:
			scratch = nd.Block.Term.UsedVars(scratch[:0])
		default:
			continue
		}
		for _, v := range scratch {
			if i, ok := index[v]; ok && !res.In.Get(id, i) {
				return fmt.Errorf("verify: temp %s may be read undefined at %s", v, nd)
			}
		}
	}
	return nil
}

// agree runs both versions and fails unless they return the same verdict
// with the same message. It reports whether the case was rejected.
func agree(t *testing.T, label string, f *ir.Function, tempFor map[ir.Expr]string) bool {
	t.Helper()
	got, want := TempsDefined(f, tempFor), tempsDefinedCollect(f, tempFor)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: TempsDefined = %v, reference = %v\n%s", label, got, want, f)
	}
	return got != nil
}

// dropTempDef returns a copy of f with the k'th statement (in block
// order) that defines one of the temporaries deleted, or false when f has
// fewer such statements.
func dropTempDef(f *ir.Function, tempFor map[ir.Expr]string, k int) (*ir.Function, bool) {
	isTemp := make(map[string]bool, len(tempFor))
	for _, t := range tempFor {
		isTemp[t] = true
	}
	g := f.Clone()
	for _, b := range g.Blocks {
		for i, in := range b.Instrs {
			if !isTemp[in.Defs()] {
				continue
			}
			if k == 0 {
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				return g, true
			}
			k--
		}
	}
	return nil, false
}

// TestTempsDefinedMatchesCollectVersion checks that building the node
// graph over the empty universe changes no verdict: on LCM, ALCM and BCM
// results of random programs, on each of those with one of its first
// temporary definitions deleted, and on every faultify Temps fault
// applied to the original and to the transformed program.
func TestTempsDefinedMatchesCollectVersion(t *testing.T) {
	var temps []faultify.Fault
	for _, ft := range faultify.All() {
		if ft.Class == faultify.Temps {
			temps = append(temps, ft)
		}
	}
	if len(temps) == 0 {
		t.Fatal("faultify has no Temps faults")
	}
	accepted, rejected := 0, 0
	count := func(r bool) {
		if r {
			rejected++
		} else {
			accepted++
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		f := randprog.ForSeed(seed)
		for _, mode := range []lcm.Mode{lcm.LCM, lcm.ALCM, lcm.BCM} {
			res, err := lcm.Transform(f, mode)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, mode, err)
			}
			label := fmt.Sprintf("seed %d %s", seed, mode)
			if agree(t, label, res.F, res.TempFor) {
				t.Fatalf("%s: transformation result rejected", label)
			}
			accepted++
			for k := 0; k < 8; k++ {
				g, ok := dropTempDef(res.F, res.TempFor, k)
				if !ok {
					break
				}
				count(agree(t, fmt.Sprintf("%s drop %d", label, k), g, res.TempFor))
			}
			for _, ft := range temps {
				for _, victim := range []*ir.Function{f, res.F} {
					g := victim.Clone()
					tempFor, ok := ft.Apply(g)
					if !ok {
						continue
					}
					if !agree(t, fmt.Sprintf("%s %s", label, ft.Name), g, tempFor) {
						t.Fatalf("%s %s: fault not detected", label, ft.Name)
					}
					rejected++
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate comparison: %d accepted, %d rejected", accepted, rejected)
	}
	t.Logf("%d cases accepted and %d rejected by both versions", accepted, rejected)
}
