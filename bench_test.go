package lazycm

import (
	"fmt"
	"testing"

	"lazycm/internal/dataflow"
	"lazycm/internal/exp"
	"lazycm/internal/gcse"
	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/lcmblock"
	"lazycm/internal/mr"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/randprog"
	"lazycm/internal/textir"
	"lazycm/internal/verify"
)

// The benchmarks below regenerate every experiment of the reproduction —
// one per figure (F1–F5) and one per measured theorem (T1–T6) — plus
// scaling benchmarks of the analysis itself. Each experiment benchmark
// reports, once, the same rows cmd/lcmexp prints, then times the
// regeneration.

func reportOnce(b *testing.B, gen func() *exp.Report) {
	b.Helper()
	b.Log("\n" + gen().String())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen()
	}
}

func BenchmarkFigure1(b *testing.B) { reportOnce(b, exp.Figure1) }

func BenchmarkFigure2Safety(b *testing.B) { reportOnce(b, exp.Figure2) }

func BenchmarkFigure3BCM(b *testing.B) { reportOnce(b, exp.Figure3) }

func BenchmarkFigure4Delay(b *testing.B) { reportOnce(b, exp.Figure4) }

func BenchmarkFigure5Isolation(b *testing.B) { reportOnce(b, exp.Figure5) }

func BenchmarkT1Correctness(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T1Correctness(20, 3) })
}

func BenchmarkT2CompOptimality(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T2CompOptimality(20, 3) })
}

func BenchmarkT3Lifetimes(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T3Lifetimes(20) })
}

func BenchmarkT3bRegisterPressure(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T3bRegisterPressure(10, []int{4, 8}) })
}

// T4/T4b benchmark the analyses, so the program workload is generated
// once outside the timed region — the same fixed-workload discipline as
// BenchmarkLCMAnalyze and BenchmarkSolveScratch. (reportOnce resets the
// timer after its display run, so generation here is never timed.)
func BenchmarkT4SolverCost(b *testing.B) {
	sizes := []int{1, 2, 3}
	progs := exp.T4Programs(sizes, 5)
	reportOnce(b, func() *exp.Report { return exp.T4SolverCostOn(sizes, progs) })
}

func BenchmarkT4bSolverCostBlockLevel(b *testing.B) {
	sizes := []int{1, 2, 3}
	progs := exp.T4Programs(sizes, 5)
	reportOnce(b, func() *exp.Report { return exp.T4bSolverCostBlockLevelOn(sizes, progs) })
}

func BenchmarkT5LoopInvariant(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T5LoopInvariant([]int64{1, 10, 100, 1000}) })
}

func BenchmarkT5bSecondOrder(b *testing.B) {
	reportOnce(b, exp.T5bSecondOrder)
}

func BenchmarkT6GCSE(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T6GCSE(20, 3) })
}

func BenchmarkT7Canonicalization(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T7Canonicalization(20, 3) })
}

func BenchmarkT8StrengthReduction(b *testing.B) {
	reportOnce(b, func() *exp.Report { return exp.T8StrengthReduction([]int64{1, 10, 100}) })
}

// Scaling benchmarks: raw analysis and transformation cost on generated
// programs of growing size.

func sizedProgram(depth int) string {
	cfg := randprog.Default(int64(depth))
	cfg.MaxDepth = depth
	cfg.MaxItems = 3
	return randprog.Generate(cfg).String()
}

func BenchmarkLCMAnalyze(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4, 5} {
		src := sizedProgram(depth)
		f, err := textir.ParseFunction(src)
		if err != nil {
			b.Fatal(err)
		}
		clone := f.Clone()
		graph.SplitCriticalEdges(clone)
		u := props.Collect(clone)
		g := nodes.Build(clone, u)
		b.Run(fmt.Sprintf("depth=%d/stmts=%d/exprs=%d", depth, clone.NumInstrs(), u.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lcm.Analyze(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveScratch isolates the shared-arena win: the same LCM
// analysis with a fresh allocation set per call ("fresh") versus one
// scratch arena reused across calls ("scratch"), as the server's workers
// and the experiment drivers use it. The allocs/op gap is the point.
func BenchmarkSolveScratch(b *testing.B) {
	for _, depth := range []int{3, 5} {
		f, err := textir.ParseFunction(sizedProgram(depth))
		if err != nil {
			b.Fatal(err)
		}
		clone := f.Clone()
		graph.SplitCriticalEdges(clone)
		u := props.Collect(clone)
		g := nodes.Build(clone, u)
		b.Run(fmt.Sprintf("depth=%d/fresh", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lcm.Analyze(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("depth=%d/scratch", depth), func(b *testing.B) {
			sc := dataflow.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := lcm.AnalyzeOpts(g, lcm.Options{Scratch: sc})
				if err != nil {
					b.Fatal(err)
				}
				// Releasing is the point: without it the six retained
				// predicate matrices can never recycle and the arena
				// degenerates to fresh allocation (the old scaling cliff).
				a.Release()
			}
		})
	}
}

func BenchmarkLCMTransform(b *testing.B) {
	for _, depth := range []int{1, 3, 5} {
		f, err := textir.ParseFunction(sizedProgram(depth))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d/stmts=%d", depth, f.NumInstrs()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lcm.Transform(f, lcm.LCM); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMRTransform(b *testing.B) {
	for _, depth := range []int{1, 3, 5} {
		f, err := textir.ParseFunction(sizedProgram(depth))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d/stmts=%d", depth, f.NumInstrs()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mr.Transform(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGCSETransform(b *testing.B) {
	f, err := textir.ParseFunction(sizedProgram(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gcse.Transform(f); err != nil {
			b.Fatal(err)
		}
	}
}

// coldLargeProgram returns the first depth-6 random program whose node
// count after critical-edge splitting lies near the middle of the served
// benchmark's cold-large band (256–1536 nodes, about 770 on average).
func coldLargeProgram() *ir.Function {
	for seed := int64(1); ; seed++ {
		cfg := randprog.Default(seed)
		cfg.MaxDepth = 6
		f := randprog.Generate(cfg)
		c := f.Clone()
		graph.SplitCriticalEdges(c)
		if n := nodes.Build(c, props.Collect(c)).NumNodes(); 700 <= n && n <= 900 {
			return f
		}
	}
}

// BenchmarkParsePrintRoundTrip times the text layer a served function
// crosses twice: parse, then print. "large" is cold-large sized and is
// gated by bench-delta.
func BenchmarkParsePrintRoundTrip(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"depth=4", sizedProgram(4)},
		{"large", coldLargeProgram().String()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := textir.ParseFunction(c.src)
				if err != nil {
					b.Fatal(err)
				}
				_ = f.String()
			}
		})
	}
}

// BenchmarkSplitCriticalEdges times edge splitting on a fresh copy of a
// cold-large function per iteration (the copy is not timed).
func BenchmarkSplitCriticalEdges(b *testing.B) {
	f := coldLargeProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := f.Clone()
		b.StartTimer()
		graph.SplitCriticalEdges(c)
	}
}

// BenchmarkTempsDefined times the pipeline's post-pass definite-assignment
// check on the LCM result of a cold-large function.
func BenchmarkTempsDefined(b *testing.B) {
	res, err := lcm.Transform(coldLargeProgram(), lcm.LCM)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := verify.TempsDefined(res.F, res.TempFor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandProgGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = randprog.ForSeed(int64(i))
	}
}

// TestScratchAllocReduction pins the arena contract as a hard floor, not
// a benchmark eyeball: a released analysis on a warm shared arena must
// allocate at least 3× less than a fresh one. (The flat matrix layout
// already makes "fresh" cheap — tens of allocations, not thousands — and
// the warm arena's remaining allocations are per-call headers such as the
// Analysis and each solve's Result.)
// If a matrix stops being released, or a new per-call allocation sneaks
// into the steady-state path, this fails long before anyone reads a
// benchmark delta.
func TestScratchAllocReduction(t *testing.T) {
	f, err := textir.ParseFunction(sizedProgram(5))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.Clone()
	graph.SplitCriticalEdges(clone)
	u := props.Collect(clone)
	g := nodes.Build(clone, u)

	fresh := testing.AllocsPerRun(5, func() {
		if _, err := lcm.Analyze(g); err != nil {
			t.Fatal(err)
		}
	})

	sc := dataflow.NewScratch()
	warm, err := lcm.AnalyzeOpts(g, lcm.Options{Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	reused := testing.AllocsPerRun(5, func() {
		a, err := lcm.AnalyzeOpts(g, lcm.Options{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		a.Release()
	})

	t.Logf("allocs/op: fresh=%.0f, warm arena=%.0f", fresh, reused)
	if reused > fresh/3 {
		t.Errorf("warm arena allocates %.0f/op vs %.0f/op fresh; want at least a 3x reduction", reused, fresh)
	}
}

// TestScale ensures the whole pipeline stays tractable on programs an
// order of magnitude larger than the experiment defaults (~2k statements).
func TestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	cfg := randprog.Default(424242)
	cfg.MaxDepth = 7
	cfg.MaxItems = 4
	f := randprog.Generate(cfg)
	if f.NumInstrs() < 500 {
		t.Fatalf("generator too small for a scale test: %d statements", f.NumInstrs())
	}
	res, err := lcm.Transform(f, lcm.LCM)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.F.Validate(); err != nil {
		t.Fatal(err)
	}
	blockRes, err := lcmblock.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	mrRes, err := mr.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scale: %d statements, %d blocks, %d exprs; LCM %d/%d edits, edge-LCM %d/%d, MR %d/%d",
		f.NumInstrs(), f.NumBlocks(), props.Collect(f).Size(),
		res.Inserted, res.Replaced,
		blockRes.Inserted, blockRes.Deleted,
		mrRes.Inserted, mrRes.Deleted)
}
