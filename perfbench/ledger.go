package main

import (
	"context"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// sampler polls /healthz during the measured phase for the queue depth
// and in-flight gauges, summed over the backends.
type sampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	depthMax float64
	inflight []float64
}

func startSampler(ctx context.Context, hc *http.Client, lcmds []*server) *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			c, err := sumHealthz(ctx, hc, lcmds)
			if err != nil {
				continue // a missed sample is only a missed sample
			}
			s.depthMax = max(s.depthMax, c["queue_depth"])
			s.inflight = append(s.inflight, c["inflight"])
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// layers derives the per-layer ledger of a traced run.
func (r *runner) layers(ps phaseStats, meas []sample, pred prediction, hz0, hz1, gz0, gz1 counters, smp *sampler) (map[string]float64, error) {
	L := map[string]float64{}
	d := func(c0, c1 counters, k string) float64 { v, _ := delta(c0, c1, k); return v }

	hits, misses := d(hz0, hz1, "cache_hits"), d(hz0, hz1, "cache_misses")
	L["lcmserver.cache_hit_frac"] = ratio(hits, hits+misses)
	for _, k := range []string{"disk_hits", "disk_bytes", "peer_hits", "peer_misses", "shed", "canceled", "fell_back", "solver_parallel_slices", "solver_sparse_skips"} {
		L["lcmserver."+k] = d(hz0, hz1, k)
	}
	L["lcmserver.queue_depth_max"] = smp.depthMax
	L["lcmserver.inflight_mean"] = mean(smp.inflight)

	var hitRTT, missRTT, hops, late []float64
	for k, s := range meas {
		a := ps.answers[k]
		if !a.ok {
			continue
		}
		if pred.allHit[s.Idx] {
			hitRTT = append(hitRTT, us(s.rtt()))
		} else {
			missRTT = append(missRTT, us(s.rtt()))
		}
		hops = append(hops, ms(s.rtt())-float64(a.server))
		late = append(late, ms(s.late()))
	}
	L["lcmserver.hit_rtt_us_p50"] = median(hitRTT)
	L["lcmserver.miss_rtt_us_p50"] = median(missRTT)
	L["lcmgate.hop_ms_mean"] = 0
	if r.w.fleet {
		L["lcmgate.hop_ms_mean"] = mean(hops)
	}
	for _, k := range []string{"failovers", "dedupe_joins", "shed"} {
		L["lcmgate."+k] = d(gz0, gz1, k)
	}
	L["loadgen.late_p99_ms"] = quantile(late, 0.99)
	var nLate int
	for _, l := range late {
		if l > ms(lateAfter) {
			nLate++
		}
	}
	L["loadgen.late_frac"] = ratio(float64(nLate), float64(len(late)))

	rec := newRecorder(true)
	clientCodec(r.st, meas[:min(len(meas), codecCap)], rec)

	ref := r.st.ref[:min(len(r.st.ref), replayCap)]
	srcs := make([]string, len(ref))
	for i, fn := range ref {
		srcs[i] = r.st.src(fn)
	}
	// Untraced and traced replays alternate; their time difference is
	// the tracing overhead.
	var plain, traced time.Duration
	var counts replayCounts
	for round := 0; round < 2; round++ {
		t0 := time.Now()
		if _, err := replayFuncs(srcs, newRecorder(false)); err != nil {
			return nil, err
		}
		plain += time.Since(t0)
		t0 = time.Now()
		c, err := replayFuncs(srcs, rec)
		if err != nil {
			return nil, err
		}
		traced += time.Since(t0)
		counts = c
	}
	L["trace.overhead_frac"] = ratio(float64(traced-plain), float64(plain))
	for k, v := range counts {
		L[k] = v
	}
	allocKB, mallocs, gcFrac, err := workerPath(srcs)
	if err != nil {
		return nil, err
	}
	L["go.alloc_kb_per_fn"], L["go.mallocs_per_fn"], L["go.gc_cpu_frac"] = allocKB, mallocs, gcFrac

	payloads := map[string][]byte{}
	for _, fa := range r.chk.answers {
		if fa.clean && len(payloads) < storeCap {
			payloads[hashText(r.st.src(fa.fn))] = []byte(fa.text)
		}
	}
	if err := cacheStore(filepath.Join(r.dir, "cachestore"), payloads, rec); err != nil {
		return nil, err
	}

	meanOf := func(name string) float64 { return mean(spanDurations(rec.spans, name)) }
	L["lcmclient.encode_us_per_req"] = meanOf("lcmclient.encode")
	L["lcmclient.decode_us_per_resp"] = meanOf("lcmclient.decode")
	L["textir.parse_module_us_per_req"] = meanOf("textir.parse_module")
	for _, name := range []string{"textir.parse", "ir.print", "ir.validate", "ir.clone", "pipeline.run", "verify.temps_defined",
		"graph.split", "props.collect", "nodes.build", "lcm.analyze", "lcm.placement"} {
		L[name+"_us_per_fn"] = meanOf(name)
	}
	// The rewrite is not a public function: its cost is the whole pass
	// minus the public stages replayed on the same function.
	L["lcm.transform_us_per_fn"] = meanOf("lcm.transform") - meanOf("lcm.stages")
	L["cachestore.put_us_p50"] = median(spanDurations(rec.spans, "cachestore.put"))
	L["cachestore.get_us_p50"] = median(spanDurations(rec.spans, "cachestore.get"))
	L["cachestore.open_ms"] = median(spanDurations(rec.spans, "cachestore.open")) / 1000

	path := spanFile(r.w.name, r.seed)
	if err := ensureDir(path); err != nil {
		return nil, err
	}
	if err := writeSpans(path, rec.spans); err != nil {
		return nil, err
	}
	self, count := byName(rec.spans)
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	r.say("spans: %d in %s; self time by layer:", len(rec.spans), path)
	for _, n := range names {
		r.say("  %-24s %10.1f ms self over %d spans", n, ms(self[n]), count[n])
	}
	return L, nil
}
