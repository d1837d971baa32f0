package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// jsonKinds maps each key of a decoded JSON object to its JSON kind.
func jsonKinds(m map[string]any) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		switch v.(type) {
		case float64:
			out[k] = "number"
		case bool:
			out[k] = "bool"
		case string:
			out[k] = "string"
		case map[string]any:
			out[k] = "object"
		case []any:
			out[k] = "array"
		default:
			out[k] = "null"
		}
	}
	return out
}

// kindsOf expands {kind: "space-separated keys"} into key → kind.
func kindsOf(byKind map[string]string) map[string]string {
	out := make(map[string]string)
	for kind, keys := range byKind {
		for _, k := range strings.Fields(keys) {
			out[k] = kind
		}
	}
	return out
}

// checkKinds fails the test unless got has exactly the keys of want,
// each of the wanted JSON kind.
func checkKinds(t *testing.T, what string, got map[string]any, want map[string]string) {
	t.Helper()
	kinds := jsonKinds(got)
	for k, kind := range want {
		if g, ok := kinds[k]; !ok {
			t.Errorf("%s: missing key %q", what, k)
		} else if g != kind {
			t.Errorf("%s: key %q is a %s, want a %s", what, k, g, kind)
		}
	}
	for k := range kinds {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected key %q", what, k)
		}
	}
}

// statsAdded is what the full lcmserver.Stats on /readyz adds to the
// gateway's per-backend and fleet views beyond the keys they carried
// before (inflight was already per-backend, as the gateway's own gauge).
var statsAdded = kindsOf(map[string]string{
	"number": `requests optimized fell_back canceled invalid shed panics quarantined
		queue_depth cache_entries cache_hits cache_misses cache_corrupt
		disk_entries disk_bytes disk_hits corrupt_dropped
		disk_write_errors disk_read_errors
		peer_hits peer_misses peer_served degrade_transitions`,
})

// TestGatewayHealthzKeySet pins the gateway /healthz key set and JSON
// kinds at the top level, per backend and in the fleet view: the keys
// served before the fleet view became a generic fold of the /readyz
// snapshots (minus fn_cache_*), plus the listed additions.
func TestGatewayHealthzKeySet(t *testing.T) {
	gw, nodes, gts := newFleet(t, 2, Config{HealthInterval: 20 * time.Millisecond})
	waitFor(t, func() bool {
		for _, n := range nodes {
			if gw.backends[n.ts.URL].snapshot.Load() == nil {
				return false
			}
		}
		return true
	})
	_, _, raw := postRawGet(t, gts.URL+"/healthz")
	var h map[string]any
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}

	checkKinds(t, "top level", h, kindsOf(map[string]string{
		"string": "status start_time",
		"object": "backends fleet",
		"array":  "draining",
		"number": `uptime_ms reloads received dedupe_joins failovers shed
			streams_proxied inflight_total last_retry_after_ms`,
	}))

	perBackend := kindsOf(map[string]string{
		"string": "breaker",
		"bool":   "ready disk_disabled journal_degraded",
		"number": `breaker_opened degrade_level inflight routed succeeded failed probes
			jobs_active jobs_resumed jobs_expired stream_clients
			disk_disable_transitions
			disk_faults_write disk_faults_read disk_faults_sync disk_faults_rename`,
	})
	maps.Copy(perBackend, statsAdded)
	perBackend["draining"] = "bool" // added: the /readyz envelope's own flag
	for _, n := range nodes {
		b, _ := h["backends"].(map[string]any)[n.ts.URL].(map[string]any)
		checkKinds(t, "backend "+n.ts.URL, b, perBackend)
	}

	fleetKinds := kindsOf(map[string]string{
		"number": `disk_disabled_backends journal_degraded_backends
			disk_disable_transitions
			disk_faults_write disk_faults_read disk_faults_sync disk_faults_rename
			jobs_active jobs_resumed jobs_expired stream_clients`,
	})
	maps.Copy(fleetKinds, statsAdded)
	// Added: the summed backend inflight, and the count of draining ones.
	fleetKinds["inflight"] = "number"
	fleetKinds["draining_backends"] = "number"
	fleet, _ := h["fleet"].(map[string]any)
	checkKinds(t, "fleet", fleet, fleetKinds)
}

// TestGatewayFleetFold: the fleet view sums every number across the
// backends' snapshots and counts each true boolean, present at zero.
func TestGatewayFleetFold(t *testing.T) {
	gw, _, gts := newScriptedFleet(t, 3, Config{}, func(i int, w http.ResponseWriter, r *http.Request) {
		writeGateJSON(w, http.StatusOK, map[string]any{
			"ready": true, "degrade_level": i, "draining": false,
			"cache_hits": 10 * (i + 1), "disk_disabled": i == 1,
		})
	})
	for _, b := range gw.backends {
		gw.probe(b)
	}
	_, _, raw := postRawGet(t, gts.URL+"/healthz")
	var h struct {
		Fleet map[string]int64 `json:"fleet"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache_hits": 60, "disk_disabled_backends": 1, "draining_backends": 0}
	if !maps.Equal(h.Fleet, want) {
		t.Errorf("fleet = %v, want %v (degrade_level and ready are not folded)", h.Fleet, want)
	}
}

// TestGatewayProbeDecodeError: a garbled /readyz body must not read as
// "full service". The probe keeps the last good degrade level and
// snapshot, and logs the decode error.
func TestGatewayProbeDecodeError(t *testing.T) {
	var truncated atomic.Bool
	var logBuf bytes.Buffer
	gw, nodes, gts := newScriptedFleet(t, 1, Config{AccessLog: &logBuf}, func(_ int, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if truncated.Load() {
			w.Write([]byte(`{"ready":true,"degrade_level":0,"jobs_act`))
			return
		}
		w.Write([]byte(`{"ready":true,"degrade_level":2,"jobs_active":3}` + "\n"))
	})
	b := gw.backends[nodes[0].ts.URL]

	gw.probe(b)
	if got := b.degrade.Load(); got != 2 {
		t.Fatalf("degrade after a valid probe = %d, want 2", got)
	}
	truncated.Store(true)
	gw.probe(b)
	if got := b.degrade.Load(); got != 2 {
		t.Errorf("degrade after a truncated probe = %d, want the last good 2", got)
	}
	if !b.ready.Load() {
		t.Error("a 200 probe with a garbled body marked the backend not ready")
	}
	if !strings.Contains(logBuf.String(), "probe backend="+b.id+" status=200 decode_err=") {
		t.Errorf("decode error not logged:\n%s", logBuf.String())
	}

	_, _, raw := postRawGet(t, gts.URL+"/healthz")
	var h struct {
		Backends map[string]map[string]any `json:"backends"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if v := h.Backends[b.id]; v["degrade_level"] != float64(2) || v["jobs_active"] != float64(3) {
		t.Errorf("backend view after a truncated probe = %v, want the last good snapshot", v)
	}
}

// TestReadyzFitsProbeLimit: a real lcmd /readyz body fits the gateway's
// probe read limit with room to spare — even with every counter at its
// widest (math.MaxInt64) and every boolean false.
func TestReadyzFitsProbeLimit(t *testing.T) {
	_, nodes, _ := newFleet(t, 1, Config{})
	_, _, raw := postRawGet(t, nodes[0].ts.URL+"/readyz")
	if len(raw) > maxProbeBody {
		t.Fatalf("/readyz body is %d bytes, over the %d-byte probe limit", len(raw), maxProbeBody)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	widest := make(map[string]any, len(body))
	for k, v := range body {
		switch v.(type) {
		case float64:
			widest[k] = int64(math.MaxInt64)
		case bool:
			widest[k] = false
		default:
			widest[k] = v
		}
	}
	wide, err := json.Marshal(widest)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide) > maxProbeBody {
		t.Errorf("widest /readyz body is %d bytes, over the %d-byte probe limit", len(wide), maxProbeBody)
	}
}
