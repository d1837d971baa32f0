package lcmserver

import (
	"maps"
	"net/http"
	"strings"
	"testing"

	"lazycm/internal/vfs"
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

// TestHealthzKeySet pins the exact /healthz key set and JSON kinds: the
// keys it served before Stats became their one declaration, minus the
// dropped fn_cache_* aliases.
func TestHealthzKeySet(t *testing.T) {
	want := kindsOf(map[string]string{
		"string": "status start_time",
		"bool":   "quarantine_writable disk_disabled journal_degraded",
		"number": `workers queue_capacity queue_depth inflight uptime_ms
			requests optimized fell_back canceled invalid shed panics quarantined
			cache_hits cache_misses cache_entries cache_corrupt
			jobs_active jobs_resumed jobs_expired stream_clients
			disk_entries disk_bytes disk_hits corrupt_dropped
			peer_hits peer_misses peer_served
			degrade_level degrade_transitions retry_after_ms latency_ewma_ms
			disk_write_errors disk_read_errors
			disk_faults_write disk_faults_read disk_faults_sync disk_faults_rename
			disk_disable_transitions`,
	})
	_, ts := newTestServer(t, Config{Workers: 1})
	_, h := getHealthz(t, ts)
	checkKinds(t, "healthz", h, want)

	// With fleet peers configured, their breaker states ride along.
	_, pts := newTestServer(t, Config{Workers: 1, Peers: []string{"http://127.0.0.1:1"}})
	_, ph := getHealthz(t, pts)
	want["peers"] = "object"
	checkKinds(t, "healthz with peers", ph, want)
}

// TestReadyzKeySet pins the /readyz key set: ready, draining and
// degrade_level plus every Stats key. The keys it served before are
// listed first; the rest arrived with the full Stats.
func TestReadyzKeySet(t *testing.T) {
	want := kindsOf(map[string]string{
		"bool": "ready draining disk_disabled journal_degraded",
		"number": `degrade_level jobs_active jobs_resumed jobs_expired stream_clients
			disk_disable_transitions
			disk_faults_write disk_faults_read disk_faults_sync disk_faults_rename`,
	})
	added := kindsOf(map[string]string{
		"number": `requests optimized fell_back canceled invalid shed panics quarantined
			queue_depth inflight cache_entries cache_hits cache_misses cache_corrupt
			disk_entries disk_bytes disk_hits corrupt_dropped
			disk_write_errors disk_read_errors
			peer_hits peer_misses peer_served degrade_transitions`,
	})
	maps.Copy(want, added)
	_, ts := newTestServer(t, Config{Workers: 1})
	_, body := getReadyz(t, ts)
	checkKinds(t, "readyz", body, want)
}

// TestHealthzPollsDoNotQuarantineDisk: the quarantine-writability probe
// behind every /healthz must not feed the disk-health fault window. On a
// disk failing every write, polls alone — no traffic — must leave the
// tier enabled and its fault counters at zero, while still reporting
// that capture cannot land.
func TestHealthzPollsDoNotQuarantineDisk(t *testing.T) {
	fault := vfs.NewFaultFS(vfs.OS, 7)
	s, ts := newTestServer(t, Config{Workers: 1, FS: fault, Quarantine: t.TempDir()})
	fault.SetWindow(vfs.Window{WriteErrProb: 1})

	var h map[string]any
	for i := 0; i < 20; i++ {
		var code int
		if code, h = getHealthz(t, ts); code != http.StatusOK {
			t.Fatalf("healthz poll %d: status %d", i, code)
		}
	}
	if h["quarantine_writable"] != false {
		t.Errorf("quarantine_writable = %v on a disk failing every write, want false", h["quarantine_writable"])
	}
	if h["disk_disabled"] != false || h["disk_faults_write"] != float64(0) || h["disk_disable_transitions"] != float64(0) {
		t.Errorf("health polls moved the disk tier: disk_disabled=%v disk_faults_write=%v disk_disable_transitions=%v",
			h["disk_disabled"], h["disk_faults_write"], h["disk_disable_transitions"])
	}
	if st := s.Stats(); st.DiskDisabled || st.DiskFaultsWrite+st.DiskFaultsRead+st.DiskFaultsSync+st.DiskFaultsRename != 0 {
		t.Errorf("Stats after health polls: %+v", st)
	}
}
