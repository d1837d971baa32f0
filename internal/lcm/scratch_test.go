package lcm

import (
	"testing"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/graph"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/randprog"
)

// TestAnalyzeScratchDeterministic proves the arena's safety claim at the
// lcm level: one shared arena reused across many functions produces
// bit-identical predicates and identical solver statistics to a fresh
// Analyze per function.
func TestAnalyzeScratchDeterministic(t *testing.T) {
	sc := dataflow.NewScratch()
	for seed := int64(1); seed <= 12; seed++ {
		f := randprog.ForSeed(seed)
		graph.SplitCriticalEdges(f)
		u := props.Collect(f)
		g := nodes.Build(f, u)

		fresh, err := Analyze(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shared, err := AnalyzeOpts(g, Options{Scratch: sc})
		if err != nil {
			t.Fatalf("seed %d (scratch): %v", seed, err)
		}

		check := func(name string, got, want *bitvec.Matrix) {
			if !got.Equal(want) {
				t.Errorf("seed %d: %s differs between shared-scratch and fresh analysis", seed, name)
			}
		}
		check("DSAFE", shared.DSafe, fresh.DSafe)
		check("USAFE", shared.USafe, fresh.USafe)
		check("EARLIEST", shared.Earliest, fresh.Earliest)
		check("DELAY", shared.Delay, fresh.Delay)
		check("LATEST", shared.Latest, fresh.Latest)
		check("ISOLATED", shared.Isolated, fresh.Isolated)

		if len(shared.Stats) != len(fresh.Stats) {
			t.Fatalf("seed %d: stats count %d != %d", seed, len(shared.Stats), len(fresh.Stats))
		}
		for i := range shared.Stats {
			if shared.Stats[i] != fresh.Stats[i] {
				t.Errorf("seed %d: stats[%d] %+v != fresh %+v", seed, i, shared.Stats[i], fresh.Stats[i])
			}
		}
		if shared.Derived != fresh.Derived {
			t.Errorf("seed %d: Derived %d != fresh %d", seed, shared.Derived, fresh.Derived)
		}
	}
}
