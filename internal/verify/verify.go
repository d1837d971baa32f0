// Package verify machine-checks the properties the paper proves about its
// transformations, on concrete programs:
//
//   - Equivalent — the transformed program is observably equivalent to the
//     original on a battery of inputs (correctness);
//   - NeverWorse — on every executed path, the transformed program
//     evaluates each candidate expression at most as often as the original
//     (per-path safety: classic PRE must never slow any path down);
//   - AsGoodAs — the transformed program evaluates at most as many
//     candidate expressions as another transformation on the same inputs
//     (used to compare LCM against BCM: both must be computationally
//     optimal, i.e. mutually AsGoodAs);
//   - TempsDefined — every read of a PRE temporary is preceded by a
//     definition of it on all paths (structural correctness of the
//     insertion points).
//
// These checks are what the test suite and experiment T1 run against every
// transformation on thousands of random programs.
package verify

import (
	"fmt"
	"sort"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/interp"
	"lazycm/internal/ir"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/randprog"
)

// Equivalent runs both functions on n argument vectors derived from seed
// and reports the first observable difference.
func Equivalent(orig, xformed *ir.Function, seed int64, n int) error {
	for i := 0; i < n; i++ {
		args := randprog.Args(orig, seed+int64(i))
		a, _, err := interp.Run(orig, interp.Options{Args: args})
		if err != nil {
			return fmt.Errorf("verify: original failed: %w", err)
		}
		b, _, err := interp.Run(xformed, interp.Options{Args: args})
		if err != nil {
			return fmt.Errorf("verify: transformed failed: %w", err)
		}
		if !a.ObservablyEqual(b) {
			return fmt.Errorf("verify: behaviour differs on args %v: original %s, transformed %s", args, a, b)
		}
	}
	return nil
}

// NeverWorse checks that on n runs, for every candidate expression of the
// original, the transformed program performs at most as many evaluations.
func NeverWorse(orig, xformed *ir.Function, seed int64, n int) error {
	exprs := props.Collect(orig).Exprs()
	for i := 0; i < n; i++ {
		args := randprog.Args(orig, seed+int64(i))
		_, before, err := interp.Run(orig, interp.Options{Args: args})
		if err != nil {
			return err
		}
		_, after, err := interp.Run(xformed, interp.Options{Args: args})
		if err != nil {
			return err
		}
		after = interp.CountsRestrictedTo(after, exprs)
		for _, e := range exprs {
			if after[e] > before[e] {
				return fmt.Errorf("verify: args %v: %s evaluated %d times, originally %d — path made worse",
					args, e, after[e], before[e])
			}
		}
	}
	return nil
}

// AsGoodAs checks that on n runs, candidate-expression evaluations of a
// total at most those of b, attributing evaluations to the original
// function's expression universe.
func AsGoodAs(orig, a, b *ir.Function, seed int64, n int) error {
	exprs := props.Collect(orig).Exprs()
	for i := 0; i < n; i++ {
		args := randprog.Args(orig, seed+int64(i))
		_, ca, err := interp.Run(a, interp.Options{Args: args})
		if err != nil {
			return err
		}
		_, cb, err := interp.Run(b, interp.Options{Args: args})
		if err != nil {
			return err
		}
		ta := interp.CountsRestrictedTo(ca, exprs).Total()
		tb := interp.CountsRestrictedTo(cb, exprs).Total()
		if ta > tb {
			return fmt.Errorf("verify: args %v: %d evaluations vs %d — not as good", args, ta, tb)
		}
	}
	return nil
}

// TempsDefined checks by data-flow analysis (definite assignment over the
// statement-level node graph) that every read of each temporary is
// preceded by a definition of it on all paths from entry.
func TempsDefined(f *ir.Function, tempFor map[ir.Expr]string) error {
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

	// Definite assignment reads only the node graph's shape and each
	// statement's defs and uses, never COMP or TRANSP, so the graph is
	// built over the empty expression universe.
	g := nodes.Build(f, &props.Universe{})
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

// Transformation bundles what every PRE result in this module exposes, so
// one checker covers lcm, mr and gcse results.
type Transformation struct {
	Name    string
	F       *ir.Function
	TempFor map[ir.Expr]string
}

// Check runs the full battery — structural validity, defined temps,
// equivalence, and per-path never-worse — of one transformation against
// its original.
func Check(orig *ir.Function, tr Transformation, seed int64, runs int) error {
	if err := tr.F.Validate(); err != nil {
		return fmt.Errorf("verify[%s]: %w", tr.Name, err)
	}
	if err := TempsDefined(tr.F, tr.TempFor); err != nil {
		return fmt.Errorf("verify[%s]: %w", tr.Name, err)
	}
	if err := Equivalent(orig, tr.F, seed, runs); err != nil {
		return fmt.Errorf("verify[%s]: %w", tr.Name, err)
	}
	if err := NeverWorse(orig, tr.F, seed, runs); err != nil {
		return fmt.Errorf("verify[%s]: %w", tr.Name, err)
	}
	return nil
}
