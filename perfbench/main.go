// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh builds lcmd, lcmgate and this program from the
// checkout, then runs
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which starts real lcmd servers (and, for fleet-mix, lcmgate) as child
// processes over loopback, drives one workload at them from this single
// process, checks every answer with the independent interpreter, and
// prints a report followed, as its last line, by one JSON object of
// metrics. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the same run also replays the workload's functions through
// each layer's public functions with spans and prints the per-layer
// ledger instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// buildDir holds everything a run builds or writes, inside the
// checkout; run.sh puts the binaries in buildDir/bin.
const buildDir = ".bench_build"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	calibrate := fs.Bool("calibrate", false, "measure hot-small's closed-loop capacity instead of running a workload")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := specByName(*workload)
	if *calibrate {
		w, ok = specByName("hot-small")
	}
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every exit path reaps the servers; an interrupt cancels ctx, the
	// loops return, and the same path runs.
	defer reapAll()

	r := &runner{w: w, seed: *seed, window: secondsDur(*seconds), traced: *trace == 1, calibrate: *calibrate}
	res, err := r.run(ctx)
	reapAll()
	if ctx.Err() != nil {
		err = errors.New("interrupted")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.calibrate {
		return 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// parallelism is how many goroutines the benchmark's own off-window
// work (generation, checking) uses.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// finite replaces an infinite reading (a tail made of failed requests)
// by a large sentinel, since JSON has no infinity.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return 1e9
	}
	return x
}
