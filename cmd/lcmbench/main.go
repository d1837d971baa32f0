// Command lcmbench runs the repository's Go benchmarks and distills the
// result into a machine-readable BENCH_lcm.json: one record per
// benchmark with ns/op, B/op and allocs/op. CI runs it with
// -benchtime=1x as a smoke pass and uploads the JSON as an artifact;
// locally, longer benchtimes give stable numbers to diff across
// commits (see the Performance section in README.md).
//
// The core benchmarks (the T4/T4b solver-cost comparison, the
// scratch-arena isolation and the cold-large parse/print round trip) are
// re-run in a second pass at a fixed higher iteration count, repeated
// -core-count times with the fastest run kept (noise only ever adds
// time, so min-of-N is the stable estimator), because a single 1x
// sample of a multi-millisecond benchmark is too noisy to diff across
// commits. The JSON records the actual iteration
// count per benchmark in "runs" — a 1x record honestly says runs:1
// rather than pretending to be a stable number.
//
// With -baseline, lcmbench additionally compares the fresh results
// against a previously committed BENCH_lcm.json and exits nonzero when a
// compared benchmark's ns_per_op regressed by more than -max-regress
// percent: the CI bench-delta gate.
//
// Usage:
//
//	lcmbench [-bench regex] [-benchtime d] [-o file] [-input file] [pkg...]
//
// Flags:
//
//	-bench R          benchmark regex passed to go test (default ".")
//	-benchtime D      per-benchmark budget passed to go test (default 1x)
//	-core-bench R     core benchmark regex re-run at -core-benchtime (default
//	                  T4/T4b/SolveScratch/ParsePrintRoundTrip/large; ""
//	                  disables the pass)
//	-core-benchtime D fixed budget for the core pass (default 25x)
//	-core-count N     core pass repetitions, fastest kept (default 3)
//	-core-pkg P       package the core pass runs in (default ".")
//	-o FILE           output path (default BENCH_lcm.json)
//	-input FILE       parse an existing `go test -bench` output file instead
//	                  of running the benchmarks ("-" reads stdin; skips the
//	                  core pass)
//	-baseline FILE    compare fresh results against this BENCH_lcm.json and
//	                  fail on regression
//	-delta-bench R    benchmark regex the baseline comparison covers
//	                  (default: T4, T4b and ParsePrintRoundTrip/large)
//	-max-regress P    tolerated ns_per_op regression in percent (default 25)
//
// Remaining arguments are the packages to benchmark (default: ./... ).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchResult is one benchmark's measurements. Fields that a benchmark
// did not report (MB/s without SetBytes, allocs without -benchmem) stay
// zero and are omitted.
type benchResult struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -N GOMAXPROCS suffix, exactly as go test printed it.
	Name string `json:"name"`
	// Package is the import path from the preceding "pkg:" line.
	Package string `json:"package,omitempty"`
	Runs    int64  `json:"runs"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
}

// benchFile is the BENCH_lcm.json document.
type benchFile struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Benchtime string `json:"benchtime,omitempty"`
	// CoreBenchtime is the fixed budget the core benchmarks were
	// re-run at; their "runs" fields reflect it.
	CoreBenchtime string        `json:"core_benchtime,omitempty"`
	Generated     string        `json:"generated,omitempty"`
	Benchmarks    []benchResult `json:"benchmarks"`
}

// parseBench extracts benchmark result lines from `go test -bench`
// output. It tolerates interleaved log lines, tracks "pkg:" headers to
// attribute results, and ignores lines it does not recognize.
func parseBench(r io.Reader) ([]benchResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var out []benchResult
	pkg := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shape: Name runs ns/op-value "ns/op" [value unit]...
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		res := benchResult{Name: fields[0], Package: pkg, Runs: runs, NsPerOp: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			val := fields[i]
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				res.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "MB/s":
				res.MBPerSec, _ = strconv.ParseFloat(val, 64)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// coreBenchDefault matches the core benchmarks whose numbers gate
// the bench-delta step: one 1x sample of these is runs:1 noise, so they
// get a fixed multi-iteration second pass, repeated -core-count times
// with the fastest run kept. Benchmark noise is strictly additive
// (preemption, frequency scaling, GC pauses only ever slow an
// iteration), so min-of-N is the stable estimator — two min-of-N
// measurements of the same binary agree far more tightly than two
// single samples, which is what a ±25% regression gate needs to not
// cry wolf.
//
// The pattern is in go test's -bench syntax: top-level alternatives, each
// split at '/' into one regex per sub-benchmark level, so the last
// alternative selects only the cold-large-sized parse/print round trip.
const coreBenchDefault = `^BenchmarkT4SolverCost$|^BenchmarkT4bSolverCostBlockLevel$|^BenchmarkSolveScratch$|^BenchmarkParsePrintRoundTrip$/^large$`

// deltaBenchDefault matches the benchmarks the baseline comparison
// covers by default: the two solver-cost experiments and the
// cold-large-sized parse/print round trip. It is a plain regexp over
// full benchmark names, sub-benchmark path included.
const deltaBenchDefault = `^(BenchmarkT4SolverCost|BenchmarkT4bSolverCostBlockLevel|BenchmarkParsePrintRoundTrip/large)$`

// runBench shells out to go test -bench and parses the results. count > 1
// repeats each benchmark (go test -count) and the caller reduces with
// bestOf.
func runBench(bench, benchtime string, count int, pkgs []string) []benchResult {
	args := append([]string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-benchtime", benchtime, "-count", strconv.Itoa(count)}, pkgs...)
	cmd := exec.Command("go", args...)
	var buf strings.Builder
	// Stream to stderr so long runs stay observable while the full
	// output is captured for parsing.
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		log.Fatalf("lcmbench: go %s: %v", strings.Join(args, " "), err)
	}
	results, err := parseBench(strings.NewReader(buf.String()))
	if err != nil {
		log.Fatalf("lcmbench: parse: %v", err)
	}
	return results
}

// bestOf keeps the fastest (minimum ns/op) record per benchmark name,
// reducing a -count N repeated run to its noise-resistant estimate. The
// first record's memory numbers ride along — allocs are deterministic
// across runs, so any record's B/op and allocs/op would do.
func bestOf(results []benchResult) []benchResult {
	idx := make(map[string]int, len(results))
	var out []benchResult
	for _, r := range results {
		i, ok := idx[r.Name]
		if !ok {
			idx[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsPerOp < out[i].NsPerOp {
			out[i] = r
		}
	}
	return out
}

// mergeResults overlays the core pass onto the main results: a core
// record replaces the main record of the same name, so the JSON carries
// the stable multi-iteration numbers with their honest run counts.
func mergeResults(main, core []benchResult) []benchResult {
	byName := make(map[string]benchResult, len(core))
	for _, c := range core {
		byName[c.Name] = c
	}
	for i, r := range main {
		if c, ok := byName[r.Name]; ok {
			main[i] = c
			delete(byName, c.Name)
		}
	}
	// Core benchmarks the main regex did not select still belong in the
	// document.
	for _, c := range core {
		if _, left := byName[c.Name]; left {
			main = append(main, c)
		}
	}
	return main
}

// baseName strips the -N GOMAXPROCS suffix so comparisons survive a
// change in parallelism between the baseline and the fresh run.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compareBaseline checks every fresh benchmark matching deltaRe against
// the baseline document and returns the number of regressions beyond
// maxRegress percent in ns/op. Benchmarks present on only one side are
// reported but never fail the gate: adding or renaming a benchmark must
// not require a baseline override.
func compareBaseline(fresh []benchResult, baselinePath string, deltaRe *regexp.Regexp, maxRegress float64) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatalf("lcmbench: baseline: %v", err)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("lcmbench: baseline %s: %v", baselinePath, err)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[baseName(b.Name)] = b.NsPerOp
	}
	regressions := 0
	compared := 0
	for _, f := range fresh {
		name := baseName(f.Name)
		if !deltaRe.MatchString(name) {
			continue
		}
		old, ok := baseNs[name]
		if !ok || old <= 0 {
			fmt.Printf("lcmbench: delta %-45s  no baseline, skipped\n", name)
			continue
		}
		compared++
		pct := (f.NsPerOp - old) / old * 100
		status := "ok"
		if pct > maxRegress {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("lcmbench: delta %-45s  %12.0f -> %12.0f ns/op  %+7.1f%%  %s\n",
			name, old, f.NsPerOp, pct, status)
	}
	if compared == 0 {
		log.Fatalf("lcmbench: baseline %s: no comparable benchmarks matched %v", baselinePath, deltaRe)
	}
	return regressions
}

func main() {
	fs := flag.NewFlagSet("lcmbench", flag.ExitOnError)
	bench := fs.String("bench", ".", "benchmark regex passed to go test")
	benchtime := fs.String("benchtime", "1x", "per-benchmark budget passed to go test")
	coreBench := fs.String("core-bench", coreBenchDefault, "core benchmark regex re-run at -core-benchtime (empty disables)")
	coreBenchtime := fs.String("core-benchtime", "25x", "fixed budget for the core pass")
	coreCount := fs.Int("core-count", 3, "core pass repetitions; the fastest run is kept")
	corePkg := fs.String("core-pkg", ".", "package the core pass runs in")
	out := fs.String("o", "BENCH_lcm.json", "output path")
	input := fs.String("input", "", "parse an existing go test -bench output file instead of running (\"-\" = stdin)")
	baseline := fs.String("baseline", "", "compare results against this BENCH_lcm.json and fail on regression")
	deltaBench := fs.String("delta-bench", deltaBenchDefault, "benchmark regex the baseline comparison covers")
	maxRegress := fs.Float64("max-regress", 25, "tolerated ns_per_op regression in percent")
	_ = fs.Parse(os.Args[1:])
	pkgs := fs.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}

	var results []benchResult
	coreUsed := ""
	switch *input {
	case "":
		// The core pass runs FIRST and against -core-pkg only: bench-delta
		// measures these same benchmarks from an idle machine with a
		// single test binary, and baseline and fresh measurement must be
		// taken under the same conditions or the gate compares machine
		// states instead of code. (A ./... core pass would race the
		// benchmark against the concurrent compilation of every other
		// package's test binary; the broad documentation pass heats the
		// machine for minutes.)
		var core []benchResult
		if *coreBench != "" {
			coreUsed = *coreBenchtime
			core = bestOf(runBench(*coreBench, *coreBenchtime, *coreCount, []string{*corePkg}))
		}
		results = mergeResults(runBench(*bench, *benchtime, 1, pkgs), core)
	case "-":
		var err error
		if results, err = parseBench(os.Stdin); err != nil {
			log.Fatalf("lcmbench: parse: %v", err)
		}
	default:
		f, err := os.Open(*input)
		if err != nil {
			log.Fatalf("lcmbench: %v", err)
		}
		results, err = parseBench(f)
		f.Close()
		if err != nil {
			log.Fatalf("lcmbench: parse: %v", err)
		}
	}
	if len(results) == 0 {
		log.Fatal("lcmbench: no benchmark results found")
	}
	doc := benchFile{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Benchtime:     *benchtime,
		CoreBenchtime: coreUsed,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		Benchmarks:    results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("lcmbench: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("lcmbench: %v", err)
	}
	fmt.Printf("lcmbench: wrote %d benchmark(s) to %s\n", len(results), *out)

	if *baseline != "" {
		deltaRe, err := regexp.Compile(*deltaBench)
		if err != nil {
			log.Fatalf("lcmbench: -delta-bench: %v", err)
		}
		if n := compareBaseline(results, *baseline, deltaRe, *maxRegress); n > 0 {
			log.Fatalf("lcmbench: %d benchmark(s) regressed more than %.0f%% vs %s", n, *maxRegress, *baseline)
		}
		fmt.Printf("lcmbench: no ns/op regression beyond %.0f%% vs %s\n", *maxRegress, *baseline)
	}
}
