package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"lazycm/internal/cachestore"
	"lazycm/internal/dataflow"
	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/lcmclient"
	"lazycm/internal/nodes"
	"lazycm/internal/pipeline"
	"lazycm/internal/props"
	"lazycm/internal/textir"
	"lazycm/internal/verify"
)

// problems are the four fixpoints in the order lcm.Analysis.Stats
// holds them.
var problems = []string{"dsafe", "usafe", "delay", "isolated"}

// replayCounts are the exact per-function counts of one replay, summed
// over its functions.
type replayCounts map[string]float64

// replayFuncs runs each function through the layers' public functions
// in-process, one span per call. The first half mirrors what a server
// worker does on a cache miss (parse, validate, clone, pipeline, print);
// the second repeats the LCM pass stage by stage on a fresh clone
// (split, collect, build, analyze, placement) and then whole
// (lcm.TransformOpts, verify.TempsDefined), so the rewrite's own cost is
// the whole pass minus its stages.
func replayFuncs(srcs []string, rec *recorder) (replayCounts, error) {
	counts := replayCounts{}
	sc := dataflow.NewScratch()
	passes := []pipeline.Pass{pipeline.LCMPass(lcm.LCM)}
	for gi, src := range srcs {
		root := rec.begin("replay", -1, gi)
		call := func(name string, fn func()) {
			id := rec.begin(name, root, gi)
			fn()
			rec.end(id)
		}
		var (
			fns   []*ir.Function
			err   error
			clone *ir.Function
		)
		call("textir.parse", func() { fns, err = textir.Parse(src) })
		if err != nil || len(fns) != 1 {
			return nil, fmt.Errorf("replay parse: %v", err)
		}
		f := fns[0]
		call("ir.validate", func() { err = f.Validate() })
		if err != nil {
			return nil, fmt.Errorf("replay validate %s: %w", f.Name, err)
		}
		call("ir.clone", func() { clone = f.Clone() })
		var res *pipeline.Result
		call("pipeline.run", func() { res, err = pipeline.Run(f, passes, pipeline.Options{Scratch: sc}) })
		if err != nil || res.FellBack() {
			return nil, fmt.Errorf("replay pipeline %s: %v %v", f.Name, err, res.Diagnostics())
		}
		call("ir.print", func() { _ = res.F.String() })

		stages := rec.begin("lcm.stages", root, gi)
		var (
			split int
			u     *props.Universe
			g     *nodes.Graph
			a     *lcm.Analysis
			p     *lcm.Placement
		)
		call("graph.split", func() { split = graph.SplitCriticalEdges(clone) })
		call("props.collect", func() { u = props.Collect(clone) })
		call("nodes.build", func() { g = nodes.Build(clone, u) })
		call("lcm.analyze", func() { a, err = lcm.AnalyzeOpts(g, lcm.Options{Scratch: sc}) })
		if err != nil {
			return nil, fmt.Errorf("replay analyze %s: %w", f.Name, err)
		}
		call("lcm.placement", func() { p, err = a.Placement(lcm.LCM) })
		rec.end(stages)
		if err != nil {
			return nil, fmt.Errorf("replay placement %s: %w", f.Name, err)
		}
		var r *lcm.Result
		call("lcm.transform", func() { r, err = lcm.TransformOpts(f, lcm.LCM, lcm.Options{Scratch: sc}) })
		if err != nil {
			return nil, fmt.Errorf("replay transform %s: %w", f.Name, err)
		}
		call("verify.temps_defined", func() { err = verify.TempsDefined(r.F, r.TempFor) })
		if err != nil {
			return nil, fmt.Errorf("replay temps %s: %w", f.Name, err)
		}
		rec.end(root)

		counts["graph.edges_split_per_fn"] += float64(split)
		counts["props.exprs_per_fn"] += float64(u.Size())
		counts["nodes.nodes_per_fn"] += float64(g.NumNodes())
		counts["lcm.derived_ops_per_fn"] += float64(a.Derived)
		counts["lcm.inserted_per_fn"] += float64(r.Inserted)
		counts["lcm.replaced_per_fn"] += float64(r.Replaced)
		for k, s := range a.Stats {
			counts["dataflow."+problems[k]+".passes"] += float64(s.Passes)
			counts["dataflow."+problems[k]+".node_visits"] += float64(s.NodeVisits)
			counts["dataflow."+problems[k]+".vector_ops"] += float64(s.VectorOps)
		}
		p.Release()
		a.Release()
		r.Release()
	}
	for k := range counts {
		counts[k] /= float64(len(srcs))
	}
	return counts, nil
}

// workerPath runs what a server worker does for a cache miss — parse,
// pipeline, print — and reports the Go runtime's allocation and GC cost
// per function.
func workerPath(srcs []string) (allocKB, mallocs, gcFrac float64, err error) {
	sc := dataflow.NewScratch()
	passes := []pipeline.Pass{pipeline.LCMPass(lcm.LCM)}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(samples)
	before := []float64{samples[0].Value.Float64(), samples[1].Value.Float64(), samples[2].Value.Float64()}
	for _, src := range srcs {
		fns, perr := textir.Parse(src)
		if perr != nil {
			return 0, 0, 0, perr
		}
		res, rerr := pipeline.Run(fns[0], passes, pipeline.Options{Scratch: sc})
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		_ = res.F.String()
	}
	metrics.Read(samples)
	runtime.ReadMemStats(&m1)
	n := float64(len(srcs))
	gc := samples[0].Value.Float64() - before[0]
	busy := (samples[1].Value.Float64() - before[1]) - (samples[2].Value.Float64() - before[2])
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n, float64(m1.Mallocs-m0.Mallocs) / n, ratio(gc, busy), nil
}

// clientCodec times the client library's wire types through
// encoding/json on the run's real request and answer bodies.
func clientCodec(st *stream, ss []sample, rec *recorder) {
	batch := strings.HasPrefix(st.path, "/optimize/batch")
	for gi, s := range ss {
		prog := st.program(s.Idx)
		id := rec.begin("lcmclient.encode", -1, gi)
		_, _ = json.Marshal(lcmclient.Request{Program: prog, Mode: "lcm"})
		rec.end(id)
		id = rec.begin("lcmclient.decode", -1, gi)
		if batch {
			var b batchBody
			_ = json.Unmarshal(s.Body, &b)
		} else {
			var r lcmclient.Response
			_ = json.Unmarshal(s.Body, &r)
		}
		rec.end(id)
		id = rec.begin("textir.parse_module", -1, gi)
		_, _ = textir.ParseModule(prog)
		rec.end(id)
	}
}

// cacheStore drives the durable tier's public API in dir with the
// run's real answers as payloads: one Put and one Get per entry, then
// three re-opens that index what was written.
func cacheStore(dir string, payloads map[string][]byte, rec *recorder) error {
	s, err := cachestore.Open(dir, 0)
	if err != nil {
		return err
	}
	keys := sortedKeys(payloads)
	for gi, k := range keys {
		id := rec.begin("cachestore.put", -1, gi)
		err := s.Put(k, payloads[k])
		rec.end(id)
		if err != nil {
			return fmt.Errorf("cachestore put: %w", err)
		}
	}
	for gi, k := range keys {
		id := rec.begin("cachestore.get", -1, gi)
		_, ok, corrupt := s.Get(k)
		rec.end(id)
		if !ok || corrupt {
			return fmt.Errorf("cachestore get %s: ok=%v corrupt=%v", k, ok, corrupt)
		}
	}
	for i := 0; i < 3; i++ {
		id := rec.begin("cachestore.open", -1, i)
		_, err := cachestore.Open(dir, 0)
		rec.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// spanDurations lists the durations of the spans named name, in µs.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return out
}

// spanFile is where a traced run leaves its spans.
func spanFile(workload string, seed int64) string {
	return filepath.Join(buildDir, "spans", fmt.Sprintf("%s-%d.jsonl", workload, seed))
}

func ensureDir(path string) error { return os.MkdirAll(filepath.Dir(path), 0o755) }
