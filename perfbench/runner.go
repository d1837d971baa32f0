package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lazycm/internal/graph"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/textir"
)

const (
	setupBoots  = 9      // server boots per run; setup_s is their median
	closedLimit = 100000 // most requests one closed-loop phase may send
	replayCap   = 256    // most reference functions the traced replay runs
	codecCap    = 300    // most answers the client codec is timed on
	storeCap    = 128    // most answers written to the cachestore probe
	lateAfter   = time.Millisecond
	genMemLimit = 1 << 30 // the generator's heap limit while its GC is off
	// windowSlices is how many equal parts of the window throughput and CPU
	// per function are measured over; the metric is their median, so a
	// burst of load from outside the benchmark moves one slice, not the
	// figure.
	windowSlices = 5
)

func secondsDur(s int) time.Duration { return time.Duration(s) * time.Second }

// runner is one invocation: one workload, one seed.
type runner struct {
	w         spec
	seed      int64
	window    time.Duration
	traced    bool
	calibrate bool

	dir string // this run's working directory under buildDir
	st  *stream
	chk *checker
	hc  *http.Client // load: at most w.clients connections
	ctl *http.Client // control: /readyz, /healthz, probes

	cleanSeen map[int]bool // functions with a clean answer so far
	mu        sync.Mutex
}

// topology is one boot of the workload's servers.
type topology struct {
	all   []*server
	lcmds []*server
	front *server // where requests are sent
	gate  *server // lcmgate, fleet-mix only
}

func (t *topology) stop() {
	for _, s := range t.all {
		s.stop(10 * time.Second)
	}
}

func (r *runner) say(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func (r *runner) run(ctx context.Context) (*result, error) {
	before, err := snapshot()
	if err != nil {
		return nil, err
	}
	for _, b := range []string{"lcmd", "lcmgate"} {
		if _, err := os.Stat(binPath(b)); err != nil {
			return nil, fmt.Errorf("missing %s (run perfbench through run.sh, which builds it): %w", binPath(b), err)
		}
	}
	r.dir = filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", r.w.name, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	res, err := r.measure(ctx)
	reapAll()
	if rmErr := os.RemoveAll(r.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		return nil, err
	}
	after, err := snapshot()
	if err != nil {
		return nil, err
	}
	if diff := before.diff(after); diff != "" {
		return nil, fmt.Errorf("the run changed the checkout outside %s: %s", buildDir, diff)
	}
	return res, nil
}

func binPath(name string) string { return filepath.Join(buildDir, "bin", name) }

// boot starts the workload's servers with their state under base and
// returns once every one answers /readyz, with the time from the first
// exec to the last ready.
func (r *runner) boot(ctx context.Context, base string) (*topology, time.Duration, error) {
	n := 1
	if r.w.fleet {
		n = 2
	}
	ports := make([]int, n+1)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		ports[i] = p
	}
	t := &topology{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d := filepath.Join(base, fmt.Sprintf("lcmd%d", i))
		args := []string{
			"-quarantine", filepath.Join(d, "quarantine"),
			"-cache-dir", filepath.Join(d, "cache"),
			"-journal-dir", filepath.Join(d, "journal"),
			"-drain", "5s",
		}
		if r.w.fleet {
			args = append(args, "-workers", "1", "-peers", fmt.Sprintf("http://127.0.0.1:%d", ports[1-i]))
		}
		if r.w.batch {
			// The default queue (4 × workers) cannot admit a 48-function
			// module at all; an editor-facing server holds two.
			args = append(args, "-queue", fmt.Sprint(2*moduleFns))
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, 0, err
		}
		s, err := startServer(fmt.Sprintf("lcmd%d", i), binPath("lcmd"), ports[i], args, filepath.Join(d, "log"))
		if err != nil {
			return nil, 0, err
		}
		t.all = append(t.all, s)
		t.lcmds = append(t.lcmds, s)
	}
	t.front = t.lcmds[0]
	if r.w.fleet {
		backends := fmt.Sprintf("http://127.0.0.1:%d,http://127.0.0.1:%d", ports[0], ports[1])
		g, err := startServer("lcmgate", binPath("lcmgate"), ports[n], []string{"-backends", backends}, filepath.Join(base, "lcmgate.log"))
		if err != nil {
			return nil, 0, err
		}
		t.all = append(t.all, g)
		t.front, t.gate = g, g
	}
	var setup time.Duration
	for _, s := range t.all {
		d, err := waitReady(ctx, s, t0)
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		setup = max(setup, d)
	}
	return t, setup, nil
}

// sendFns posts a module of fns (with their generated names) to the
// topology's front and records the answers.
func (r *runner) sendFns(ctx context.Context, t *topology, path string, fns []int) error {
	body := encodeBody(r.st.moduleText(fns, nil))
	status, resp, err := post(ctx, r.ctl, t.front.url+path, body)
	a := decodeAnswer(path, fns, sample{Status: status, Body: resp, Err: err})
	if !a.ok {
		return fmt.Errorf("%s of %d functions: status %d err %v: %.200s", path, len(fns), status, err, resp)
	}
	r.record(a)
	return nil
}

func (r *runner) record(a answer) {
	r.chk.add(a.fns...)
	r.mu.Lock()
	for _, fa := range a.fns {
		if fa.clean {
			r.cleanSeen[fa.fn] = true
		}
	}
	r.mu.Unlock()
}

// drive runs one load phase against t starting at request offset: an
// open loop over due, or a closed loop for d.
func (r *runner) drive(ctx context.Context, t *topology, offset int, due []time.Duration, d time.Duration) []sample {
	url := t.front.url + r.st.path
	tg := target{
		prep: func(i int) []byte { return encodeBody(r.st.program(offset + i)) },
		send: func(ctx context.Context, body []byte) (int, []byte, error) { return post(ctx, r.hc, url, body) },
	}
	// The generator's own garbage collector would compete with the
	// servers for the two cores in bursts; it is off during a load phase,
	// with a memory limit as the safety net, and collects afterwards.
	runtime.GC()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(genMemLimit))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ss []sample
	if r.w.open && !r.calibrate {
		ss = openLoop(ctx, due, r.w.clients, tg)
	} else {
		ss = closedLoop(ctx, r.w.clients, d, closedLimit, tg)
	}
	for k := range ss {
		ss[k].Idx += offset
	}
	return ss
}

// schedule splits hot-small's Poisson arrivals into the warm-up and
// the measured phase, each starting at zero.
func (r *runner) schedule() (warm, meas []time.Duration) {
	total := r.w.warm + r.window
	n := int(r.w.rate*total.Seconds()*1.5) + 100
	due := poissonSchedule(subSeed(r.seed, "arrivals"), r.w.rate, n)
	for _, d := range due {
		switch {
		case d < r.w.warm:
			warm = append(warm, d)
		case d < total:
			meas = append(meas, d-r.w.warm)
		}
	}
	return warm, meas
}

// prefill runs the module-edit warm-up server: it computes the earlier
// sessions' modules and the starting module as batch jobs, so the
// measured server boots over a populated durable cache and journal.
func (r *runner) prefill(ctx context.Context, base string) error {
	t, _, err := r.boot(ctx, base)
	if err != nil {
		return err
	}
	defer t.stop()
	for h := 0; h <= historyMods; h++ {
		if err := r.sendFns(ctx, t, r.st.path, historyModule(h)); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// prewarm asks the measured server for every pool function once, in
// modules of maxPerModule over the load connections, so that the
// window sees only the memory and disk tiers.
func (r *runner) prewarm(ctx context.Context, t *topology) error {
	n := len(r.st.fns)
	var next atomic.Int64
	errs := make([]error, r.w.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				lo := int(next.Add(maxPerModule)) - maxPerModule
				if lo >= n {
					return
				}
				if err := r.sendFns(ctx, t, "/optimize", r.st.fnsRange(lo, min(lo+maxPerModule, n))); err != nil {
					errs[c] = fmt.Errorf("prewarm: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// bootAll boots the topology setupBoots times and keeps the last boot.
// Every earlier boot answers one probe module of reference functions,
// which the checker holds to the same answers as the measured server.
func (r *runner) bootAll(ctx context.Context) (*topology, []float64, error) {
	var setups []float64
	for k := 1; k <= setupBoots; k++ {
		base := filepath.Join(r.dir, fmt.Sprintf("boot%d", k))
		if r.w.batch {
			base = filepath.Join(r.dir, "shared")
		}
		t, d, err := r.boot(ctx, base)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if k == setupBoots {
			return t, setups, nil
		}
		err = r.sendFns(ctx, t, "/optimize", r.st.ref[:4])
		t.stop()
		if err != nil {
			return nil, nil, fmt.Errorf("probe of boot %d: %w", k, err)
		}
	}
	panic("unreachable")
}

// phaseStats are the end-to-end readings of the measured phase.
type phaseStats struct {
	attempted, failed, malformed int
	fnsClean, fnsAnswered        int
	fellBack                     int
	elapsed                      time.Duration
	latMS                        []float64 // per request; +Inf for a failure
	answers                      []answer
}

func (r *runner) decodePhase(ss []sample, measured bool) phaseStats {
	var ps phaseStats
	for _, s := range ss {
		a := decodeAnswer(r.st.path, r.st.fnsOf(s.Idx), s)
		r.record(a)
		ps.answers = append(ps.answers, a)
		if !measured {
			continue
		}
		ps.attempted++
		ps.elapsed = max(ps.elapsed, s.End)
		switch {
		case a.malformed:
			ps.malformed++
		case !a.ok:
			ps.failed++
		}
		if !a.ok {
			ps.latMS = append(ps.latMS, math.Inf(1))
			continue
		}
		ps.latMS = append(ps.latMS, ms(s.latency()))
		for _, fa := range a.fns {
			ps.fnsAnswered++
			if fa.clean {
				ps.fnsClean++
			}
			if fa.fellBack {
				ps.fellBack++
			}
		}
	}
	return ps
}

// fmtList formats xs scaled by k, for the report.
func fmtList(xs []float64, k float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x*k)
	}
	return strings.Join(parts, ", ")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// measure is the whole run between the hygiene snapshots.
func (r *runner) measure(ctx context.Context) (*result, error) {
	var marks []string
	last := time.Now()
	mark := func(what string) {
		marks = append(marks, fmt.Sprintf("%s %.1fs", what, time.Since(last).Seconds()))
		last = time.Now()
	}
	defer func() { r.say("timing: %s", strings.Join(marks, ", ")) }()
	r.st = newStream(r.w, r.seed, parallelism())
	mark("generate")
	r.chk = newChecker(r.st)
	r.cleanSeen = map[int]bool{}
	r.hc = newHTTPClient(r.w.clients)
	r.ctl = newHTTPClient(2)
	r.say("perfbench: workload=%s seed=%d seconds=%d trace=%v", r.w.name, r.seed, int(r.window.Seconds()), r.traced)

	if r.w.batch {
		if err := r.prefill(ctx, filepath.Join(r.dir, "shared")); err != nil {
			return nil, err
		}
	}
	t, setups, err := r.bootAll(ctx)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	mark("boot")

	if r.w.prewarm {
		if err := r.prewarm(ctx, t); err != nil {
			return nil, err
		}
		mark("prewarm")
	}
	warmDue, measDue := r.schedule()
	warm := r.drive(ctx, t, 0, warmDue, r.w.warm)
	mark("warm-up")
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	hz0, err := sumHealthz(ctx, r.ctl, t.lcmds)
	if err != nil {
		return nil, err
	}
	gz0 := counters{}
	if t.gate != nil {
		if gz0, err = sumHealthz(ctx, r.ctl, []*server{t.gate}); err != nil {
			return nil, err
		}
	}
	p0, err := fleetStat(t.all)
	if err != nil {
		return nil, err
	}
	var smp *sampler
	if r.traced {
		smp = startSampler(ctx, r.ctl, t.lcmds)
	}
	cpuc := startCPUClock(t.all, r.window/windowSlices)
	meas := r.drive(ctx, t, len(warm), measDue, r.window)
	cpuMarks := cpuc.stop()
	if smp != nil {
		smp.stop()
	}
	mark("window")
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	p1, err := fleetStat(t.all)
	if err != nil {
		return nil, err
	}
	hz1, err := sumHealthz(ctx, r.ctl, t.lcmds)
	if err != nil {
		return nil, err
	}
	gz1 := counters{}
	if t.gate != nil {
		if gz1, err = sumHealthz(ctx, r.ctl, []*server{t.gate}); err != nil {
			return nil, err
		}
	}

	if r.calibrate {
		ps := r.decodePhase(meas, true)
		r.say("capacity: %.0f requests/s, %.0f functions/s with %d closed-loop clients (%d failed)",
			float64(ps.attempted)/ps.elapsed.Seconds(), float64(ps.fnsClean)/ps.elapsed.Seconds(), r.w.clients, ps.failed)
		return nil, nil
	}

	r.decodePhase(warm, false)
	ps := r.decodePhase(meas, true)
	// Every reference function needs a clean answer for the exact
	// metrics; any the load did not reach are asked for now, outside
	// the window.
	var missing []int
	for _, fn := range r.st.ref {
		if !r.cleanSeen[fn] {
			missing = append(missing, fn)
		}
	}
	for len(missing) > 0 {
		k := min(len(missing), maxPerModule)
		if err := r.sendFns(ctx, t, "/optimize", missing[:k]); err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		missing = missing[k:]
	}
	mark("reference pass")
	t.stop()
	mark("stop")

	rep := r.chk.judgeAll(parallelism())
	mark("check")
	// evals_saved_frac weighs every reference function the same: the
	// mean of each function's saved share, so that no single hot loop
	// decides the figure. The report also prints the totals.
	var evB, evA, szB, szA float64
	var saved []float64
	for _, fn := range r.st.ref {
		v, ok := rep.clean[fn]
		if !ok {
			return nil, fmt.Errorf("reference function %s has no clean answer", funcName(r.st.src(fn)))
		}
		evB += float64(v.evalsBefore)
		evA += float64(v.evalsAfter)
		szB += float64(v.sizeBefore)
		szA += float64(v.sizeAfter)
		saved = append(saved, float64(v.evalsBefore-v.evalsAfter)/float64(max(v.evalsBefore, 1)))
	}

	pred := r.predictHits(len(warm), len(warm)+len(meas))
	if err := r.shape(ps, pred, hz0, hz1); err != nil {
		return nil, err
	}

	wrong := rep.wrong + ps.malformed
	res := &result{
		Correct:   wrong == 0 && len(rep.inconsistent) == 0,
		Attempted: ps.attempted,
		Failed:    ps.failed,
		Metrics:   map[string]metric{},
	}
	if ps.attempted == 0 || ps.elapsed <= 0 {
		return nil, fmt.Errorf("no request completed in the measured window")
	}
	tl, tails := sliceTail(meas, ps.latMS)
	cpuMS := ms(p1.cpu - p0.cpu)
	sliceTput, sliceCPU := perSlice(meas, ps.answers, cpuMarks, r.window/windowSlices)
	e2e := []struct {
		name, unit string
		v          float64
		n          string
	}{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of n=%d boots: %s", len(setups), fmtList(setups, 1000, "%.1f ms"))},
		{"throughput_fns_per_s", "1/s", median(sliceTput), fmt.Sprintf("median of %d slices: %s; whole window n=%d functions in %.2f s", len(sliceTput), fmtList(sliceTput, 1, "%.0f"), ps.fnsClean, ps.elapsed.Seconds())},
		{"latency_p50_ms", "ms", finite(median(ps.latMS)), fmt.Sprintf("n=%d requests", len(ps.latMS))},
		{"latency_p99_ms", "ms", finite(median(tails)), fmt.Sprintf("median of %d slices of p%.1f (n=%d requests, %d beyond, per slice): %s", len(tails), tl.P, tl.N, tl.Beyond, fmtList(tails, 1, "%.2f"))},
		{"cpu_ms_per_fn", "ms", median(sliceCPU), fmt.Sprintf("median of %d slices: %s; whole window %.0f ms server CPU over n=%d functions", len(sliceCPU), fmtList(sliceCPU, 1, "%.3f"), cpuMS, ps.fnsAnswered)},
		{"peak_rss_mb", "MB", float64(p1.hwmKB) / 1024, fmt.Sprintf("VmHWM summed over %d processes", len(t.all))},
		{"fail_frac", "frac", ratio(float64(ps.failed), float64(ps.attempted)), fmt.Sprintf("%d of n=%d requests", ps.failed, ps.attempted)},
		{"fallback_frac", "frac", ratio(float64(ps.fellBack), float64(ps.fnsAnswered)), fmt.Sprintf("%d of n=%d functions", ps.fellBack, ps.fnsAnswered)},
		{"wrong_outputs", "count", float64(wrong), fmt.Sprintf("n=%d answers checked", rep.answered+ps.malformed)},
		{"evals_saved_frac", "frac", mean(saved), fmt.Sprintf("mean over n=%d reference functions × %d inputs; %.0f → %.0f evaluations in total", len(r.st.ref), argSets, evB, evA)},
		{"code_size_ratio", "ratio", ratio(szA, szB), fmt.Sprintf("%.0f → %.0f instructions over n=%d reference functions", szB, szA, len(r.st.ref))},
	}
	reported := map[string]bool{}
	for _, m := range endToEnd {
		reported[m.name] = true
	}
	for _, m := range e2e {
		r.say("%-22s %14.6g %-5s (%s)", m.name, m.v, m.unit, m.n)
		if !r.traced && reported[m.name] {
			res.Metrics[m.name] = metric{m.v, m.unit}
		}
	}
	r.say("correctness: %d answers, %d wrong, %d functions answered inconsistently, reference digest %s",
		rep.answered+ps.malformed, wrong, len(rep.inconsistent), r.chk.digest(r.st.ref))
	for _, why := range rep.why {
		r.say("  wrong: %s", why)
	}
	if len(rep.inconsistent) > 0 {
		r.say("  inconsistent: %s", strings.Join(rep.inconsistent[:min(5, len(rep.inconsistent))], ", "))
	}

	if r.traced {
		defer mark("trace")
		layers, err := r.layers(ps, meas, pred, hz0, hz1, gz0, gz1, smp)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
			}
			r.say("%-38s %14.6g %s", m.name, v, m.unit)
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	return res, nil
}

// prediction is the benchmark's own model of the server caches: a
// function seen earlier in the run (or prefilled, or prewarmed) is a
// hit, because the durable tier keeps everything the memory tier evicts
// and peers share across the fleet.
type prediction struct {
	allHit map[int]bool // per measured request: every function predicted to hit
	repeat float64      // share of measured function occurrences that repeat
}

// predictHits runs the model over requests 0..to-1 and reads it for the
// measured ones, from..to-1.
func (r *runner) predictHits(from, to int) prediction {
	seen := map[int]bool{}
	if r.w.batch {
		for h := 0; h <= historyMods; h++ {
			for _, fn := range historyModule(h) {
				seen[fn] = true
			}
		}
	}
	if r.w.prewarm {
		for fn := range r.st.fns {
			seen[fn] = true
		}
	}
	p := prediction{allHit: map[int]bool{}}
	var rep, occ int
	for i := 0; i < to; i++ {
		all := true
		for _, fn := range r.st.fnsOf(i) {
			hit := seen[fn] && !r.st.rename
			all = all && hit
			if i >= from {
				occ++
				if hit {
					rep++
				}
			}
			seen[fn] = true
		}
		if i >= from {
			p.allHit[i] = all
		}
	}
	p.repeat = ratio(float64(rep), float64(occ))
	return p
}

// shape prints the workload's shape and fails the run if the workload
// drifted off its side of the solver's strategy choice.
func (r *runner) shape(ps phaseStats, pred prediction, hz0, hz1 counters) error {
	var nodesN, exprs float64
	ref := r.st.ref[:min(len(r.st.ref), replayCap)]
	for _, fn := range ref {
		f, err := textir.ParseFunction(r.st.src(fn))
		if err != nil {
			return err
		}
		graph.SplitCriticalEdges(f)
		u := props.Collect(f)
		nodesN += float64(nodes.Build(f, u).NumNodes())
		exprs += float64(u.Size())
	}
	n := float64(len(ref))
	parSlices, ok1 := delta(hz0, hz1, "solver_parallel_slices")
	skips, ok2 := delta(hz0, hz1, "solver_sparse_skips")
	side := "serial"
	if parSlices+skips > 0 {
		side = "parallel"
	}
	verdict := "ok"
	switch {
	case !ok1 || !ok2:
		verdict = "not checked: /healthz has no solver strategy counters"
	case r.w.side != "any" && r.w.side != side:
		verdict = "DRIFTED"
	}
	r.say("shape: %.2f functions/request, %.1f nodes and %.1f expressions per function, repeat share %.3f, solver_parallel_slices +%.0f, solver_sparse_skips +%.0f: %s side (intended %s) %s",
		ratio(float64(ps.fnsAnswered), float64(ps.attempted-ps.failed)), nodesN/n, exprs/n, pred.repeat, parSlices, skips, side, r.w.side, verdict)
	if verdict == "DRIFTED" {
		return fmt.Errorf("workload %s drifted to the %s side of the solver choice (intended %s)", r.w.name, side, r.w.side)
	}
	return nil
}
