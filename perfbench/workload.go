package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/lcmclient"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/randprog"
)

// spec is one workload's fixed shape (BENCHMARK.json and README.md say
// why each exists). Everything random about a run is drawn from the
// --seed; everything here is the same for every seed.
type spec struct {
	name string
	// open selects an open loop at rate requests/s; otherwise clients
	// closed-loop clients send back to back.
	open    bool
	rate    float64
	clients int
	warm    time.Duration
	// side is which side of the solver's strategy choice the workload
	// is meant to exercise: "serial" (parallel-slice and sparse-skip
	// counters stay 0), "parallel" (they advance) or "any".
	side string
	// fleet runs two lcmd backends behind lcmgate instead of one lcmd.
	fleet bool
	// batch sends modules to /optimize/batch?job=1 over a durable cache
	// prefilled by a warm-up server.
	batch bool
	// prewarm has the measured server compute the whole pool before the
	// warm-up, so the window runs on a warm cache.
	prewarm bool
}

// hotSmallRate is hot-small's offered load in requests/s: about a fifth
// of the closed-loop capacity `perfbench --calibrate` measures on the
// hot-small stream on a 2-core machine (see README.md), low enough that
// the two senders rarely queue, so the open loop measures the server
// rather than a backlog.
const hotSmallRate = 300

// fleetMixRate is fleet-mix's offered load in requests/s, about a
// quarter of the fleet's closed-loop capacity on the same machine
// (about 550 requests/s). Closed-loop throughput through three server
// processes on two cores followed the host's load from minute to
// minute (0.33 of the median over ten runs); a fixed offered rate does
// not.
const fleetMixRate = 150

var specs = []spec{
	{name: "hot-small", open: true, rate: hotSmallRate, clients: 2, warm: 2 * time.Second, side: "serial", prewarm: true},
	{name: "cold-large", clients: 2, warm: 2 * time.Second, side: "parallel"},
	{name: "module-edit", clients: 1, warm: time.Second, side: "any", batch: true},
	{name: "fleet-mix", open: true, rate: fleetMixRate, clients: 2, warm: 2 * time.Second, side: "serial", fleet: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// stream is a workload's seeded sequence of requests. Request i carries
// the functions fnsOf(i), indexes into fns; cold-large renames each
// function per request so that no two requests share a cache key.
type stream struct {
	fns    []string // function table: source text, one function each
	ref    []int    // reference set: the seed-determined functions whose answers define the exact metrics
	path   string
	rename bool

	mu    sync.Mutex
	next  func(i int) []int // draws request i's functions; called in order under mu
	drawn [][]int
}

// fnsOf returns request i's function indexes, drawing requests up to i
// on first use.
func (st *stream) fnsOf(i int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.drawn) <= i {
		st.drawn = append(st.drawn, st.next(len(st.drawn)))
	}
	return st.drawn[i]
}

// fnsRange lists the function indexes lo..hi-1.
func (st *stream) fnsRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for fn := lo; fn < hi; fn++ {
		out = append(out, fn)
	}
	return out
}

// src is function fn's source text.
func (st *stream) src(fn int) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fns[fn]
}

// fnName is the name the server sees for function fn in request i.
func (st *stream) fnName(i, fn int) string {
	name := funcName(st.src(fn))
	if st.rename {
		return fmt.Sprintf("r%d_%s", i, name)
	}
	return name
}

// program is request i's module text.
func (st *stream) program(i int) string {
	return st.moduleText(st.fnsOf(i), func(fn int) string { return st.fnName(i, fn) })
}

// moduleText joins the functions' sources into one module, naming each
// by name (nil keeps the generated names).
func (st *stream) moduleText(fns []int, name func(fn int) string) string {
	var b strings.Builder
	for k, fn := range fns {
		if k > 0 {
			b.WriteByte('\n')
		}
		src := st.src(fn)
		if name != nil {
			src = renameFunc(src, name(fn))
		}
		b.WriteString(src)
	}
	return b.String()
}

// encodeBody is the JSON body for a module, in the client library's
// wire shape.
func encodeBody(program string) []byte {
	b, err := json.Marshal(lcmclient.Request{Program: program, Mode: "lcm"})
	if err != nil {
		panic(err) // a struct of strings always encodes
	}
	return b
}

// funcName extracts the name from a function's header line.
func funcName(src string) string {
	h, _, _ := strings.Cut(src, "(")
	return strings.TrimPrefix(h, "func ")
}

// renameFunc gives a function source a new name.
func renameFunc(src, name string) string {
	_, rest, _ := strings.Cut(src, "(")
	return "func " + name + "(" + rest
}

// mix64 is splitmix64, used to derive independent seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of one random stream of a run.
func subSeed(seed int64, stream string) int64 {
	h := uint64(seed)
	for _, c := range stream {
		h = mix64(h ^ uint64(c))
	}
	return int64(h >> 2)
}

// band bounds a generated function's node count (after critical-edge
// splitting), so that a workload's functions have the shape it is
// defined by and no single outlier sets a run's figures.
type band struct{ lo, hi int }

var (
	// small functions — hot-small's and fleet-mix's — average about 100
	// nodes and 44 candidate expressions; at most 160 nodes keeps them
	// within two 64-bit words, on the serial side of the solver choice.
	small = band{64, 160}
	// large functions — cold-large's — average about 720 nodes and 250
	// expressions; most take the sliced or sparse solver, and the
	// depth-6 generator's extreme tail is cut.
	large = band{256, 1536}
	// anySize accepts every draw (module-edit's depth 3–4 modules).
	anySize = band{0, 1 << 30}
)

// genFuncs generates n programs of depth lo..hi with seeds base, base+1,
// …, on par goroutines; the result depends only on the arguments.
func genFuncs(base int64, n, lo, hi int, b band, par int) []string {
	out := make([]string, n)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += par {
				out[i] = genFunc(base+int64(i), lo, hi, b)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// genFunc generates the program for one seed, with its depth drawn from
// lo..hi by the same seed. A program outside the band is replaced by
// the next draw of a fixed seed sequence.
func genFunc(seed int64, lo, hi int, b band) string {
	for k := int64(0); ; k++ {
		s := seed + k*1_000_003
		cfg := randprog.Default(s)
		cfg.MaxDepth = lo + int(mix64(uint64(s))%uint64(hi-lo+1))
		f := randprog.Generate(cfg)
		if b.fits(f) {
			return f.String()
		}
	}
}

func (b band) fits(f *ir.Function) bool {
	if b == anySize {
		return true
	}
	c := f.Clone()
	graph.SplitCriticalEdges(c)
	n := nodes.Build(c, props.Collect(c)).NumNodes()
	return b.lo <= n && n <= b.hi
}

// seedBase keeps generated function seeds positive and short.
func seedBase(seed int64, stream string) int64 {
	return (subSeed(seed, stream) % 1_000_000_000) * 10_000
}

const (
	poolSize     = 2048 // hot-small / fleet-mix pool, 16× the default 128-entry memory cache
	zipfS        = 1.1
	largeBases   = 1024 // distinct cold-large functions; requests rename them
	moduleFns    = 48
	historyMods  = 16 // modules the module-edit warm-up server computes before the measured boot
	maxPerModule = 4
	refRequests  = 4000 // hot-small / fleet-mix reference set: functions of the first requests
)

// newStream builds the seeded request stream of workload w.
func newStream(w spec, seed int64, par int) *stream {
	switch w.name {
	case "cold-large":
		st := &stream{path: "/optimize", rename: true}
		st.fns = genFuncs(seedBase(seed, "large"), largeBases, 5, 6, large, par)
		perm := rand.New(rand.NewSource(subSeed(seed, "large-order"))).Perm(largeBases)
		st.ref = perm
		st.next = func(i int) []int { return []int{perm[i%largeBases]} }
		return st
	case "module-edit":
		return newEditStream(seed, par)
	default: // hot-small, fleet-mix: small modules drawn Zipf from a pool
		st := &stream{path: "/optimize"}
		st.fns = genFuncs(seedBase(seed, w.name+"-pool"), poolSize, 2, 3, small, par)
		r := rand.New(rand.NewSource(subSeed(seed, w.name+"-draw")))
		rank := r.Perm(poolSize) // Zipf rank → pool index
		z := rand.NewZipf(r, zipfS, 1, poolSize-1)
		st.next = func(int) []int {
			k := 1 + r.Intn(maxPerModule)
			fns := make([]int, 0, k)
			for len(fns) < k {
				f := rank[z.Uint64()]
				if !slices.Contains(fns, f) {
					fns = append(fns, f)
				}
			}
			return fns
		}
		// The reference set is the distinct functions of the first
		// refRequests requests, which every run sends.
		seen := map[int]bool{}
		for i := 0; i < refRequests; i++ {
			for _, fn := range st.fnsOf(i) {
				if !seen[fn] {
					seen[fn] = true
					st.ref = append(st.ref, fn)
				}
			}
		}
		return st
	}
}

// newEditStream is module-edit: request i is the previous module with
// 1-3 of its functions replaced by freshly generated ones. The module
// before request 0 (index -1) and historyMods earlier modules are what
// the warm-up server prefills the durable cache with; see prefill.
func newEditStream(seed int64, par int) *stream {
	st := &stream{path: "/optimize/batch?job=1"}
	base := seedBase(seed, "edit")
	st.fns = genFuncs(base, moduleFns*(historyMods+1), 3, 4, anySize, par)
	cur := make([]int, moduleFns)
	for i := range cur {
		cur[i] = historyMods*moduleFns + i // module 0 follows the history
	}
	// The reference set is every prefilled function: the earlier
	// sessions' modules and the starting module.
	st.ref = make([]int, len(st.fns))
	for i := range st.ref {
		st.ref[i] = i
	}
	r := rand.New(rand.NewSource(subSeed(seed, "edit-draw")))
	nextSeed := base + int64(len(st.fns))
	st.next = func(int) []int {
		mod := append([]int(nil), cur...)
		k := 1 + r.Intn(3)
		for _, pos := range r.Perm(moduleFns)[:k] {
			// Called under st.mu, so appending to the table is safe; the
			// table is only read by index afterwards.
			st.fns = append(st.fns, genFunc(nextSeed, 3, 4, anySize))
			nextSeed++
			mod[pos] = len(st.fns) - 1
		}
		cur = mod
		return mod
	}
	return st
}

// historyModule is module h of the module-edit prefill: h < historyMods
// are earlier sessions, h == historyMods is the module the measured
// requests start editing.
func historyModule(h int) []int {
	out := make([]int, moduleFns)
	for i := range out {
		out[i] = h*moduleFns + i
	}
	return out
}
