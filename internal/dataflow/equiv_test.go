package dataflow

import (
	"fmt"
	"math/rand"
	"testing"

	"lazycm/internal/bitvec"
)

// randGraph builds a random digraph of n nodes: a spine 0→1→…→n-1 plus
// extra random edges (including back edges), so both directions have
// boundary nodes and real cycles.
func randGraph(rng *rand.Rand, n int) *sliceGraph {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	extra := n / 2
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return newSliceGraph(n, edges)
}

func randMatrix(rng *rand.Rand, rows, cols int) *bitvec.Matrix {
	m := bitvec.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		// Thin rows: set ~1/8 of the bits.
		for b := 0; b < cols; b += 1 + rng.Intn(15) {
			m.Set(i, b)
		}
	}
	return m
}

// refSolve is the test-only reference solver: the per-row bitvec.Vector
// round-robin formulation Solve's flat-word sweep was rewritten from. It
// meets with CopyFrom/And/Or, transfers with OrAndNotOf, visits nodes in
// iterationOrder, and counts one vector op per meet source, one for the
// meet copy and three for the fused transfer — the T4 accounting Solve
// must reproduce exactly. Fuel, Ctx and Scratch are ignored.
func refSolve(g Graph, p *Problem) *Result {
	n := g.NumNodes()
	res := &Result{In: bitvec.NewMatrix(n, p.Width), Out: bitvec.NewMatrix(n, p.Width)}
	res.Stats.Name = p.Name
	meetIn := bitvec.New(p.Width)
	if p.Meet == Must {
		for i := 0; i < n; i++ {
			if p.Dir == Forward {
				res.Out.Row(i).SetAll()
			} else {
				res.In.Row(i).SetAll()
			}
		}
	}
	order := iterationOrder(g, p.Dir)
	for {
		res.Stats.Passes++
		changed := false
		for _, node := range order {
			res.Stats.NodeVisits++
			flowIn, flowOut := res.In.Row(node), res.Out.Row(node)
			degree := g.NumPreds(node)
			if p.Dir == Backward {
				flowIn, flowOut = flowOut, flowIn
				degree = g.NumSuccs(node)
			}
			if degree == 0 {
				if p.Boundary == BoundaryFull {
					meetIn.SetAll()
				} else {
					meetIn.ClearAll()
				}
			}
			for i := 0; i < degree; i++ {
				var src *bitvec.Vector
				if p.Dir == Forward {
					src = res.Out.Row(g.Pred(node, i))
				} else {
					src = res.In.Row(g.Succ(node, i))
				}
				switch {
				case i == 0:
					meetIn.CopyFrom(src)
				case p.Meet == Must:
					meetIn.And(src)
				default:
					meetIn.Or(src)
				}
				res.Stats.VectorOps++
			}
			if flowIn.CopyFrom(meetIn) {
				changed = true
			}
			if flowOut.OrAndNotOf(p.Gen.Row(node), flowIn, p.Kill.Row(node)) {
				changed = true
			}
			res.Stats.VectorOps += 4
		}
		if !changed {
			return res
		}
	}
}

// TestSolverEquivalence is the randomized net under Solve: for random
// graphs, random gen/kill sets, every direction × meet × boundary
// combination, and widths spanning one word to many, Solve — fresh and
// over a shared scratch arena — must produce bit-identical In and Out
// matrices and identical Stats to the per-row reference solver.
func TestSolverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	widths := []int{1, 63, 64, 65, 300, 4200}
	if testing.Short() {
		widths = []int{1, 65, 300}
	}
	sc := NewScratch()
	for _, width := range widths {
		for trial := 0; trial < 4; trial++ {
			n := 2 + rng.Intn(200)
			g := randGraph(rng, n)
			gen := randMatrix(rng, n, width)
			kill := randMatrix(rng, n, width)
			for _, dir := range []Direction{Forward, Backward} {
				for _, meet := range []Meet{Must, May} {
					for _, bnd := range []Boundary{BoundaryEmpty, BoundaryFull} {
						name := fmt.Sprintf("w%d/n%d/%v/%v/b%d", width, n, dir, meet, bnd)
						p := Problem{
							Name: name, Dir: dir, Meet: meet, Width: width,
							Gen: gen, Kill: kill, Boundary: bnd,
						}
						ref := refSolve(g, &p)
						// With and without a shared scratch arena.
						for _, scratch := range []*Scratch{nil, sc} {
							p.Scratch = scratch
							got, err := Solve(g, &p)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !got.In.Equal(ref.In) || !got.Out.Equal(ref.Out) {
								t.Fatalf("%s (scratch=%v): result differs from the reference", name, scratch != nil)
							}
							if got.Stats != ref.Stats {
								t.Fatalf("%s (scratch=%v): stats %+v, reference %+v", name, scratch != nil, got.Stats, ref.Stats)
							}
							if scratch != nil {
								scratch.Release(got.In, got.Out)
							}
						}
					}
				}
			}
		}
	}
}
