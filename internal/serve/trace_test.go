package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"neummu/internal/store"
	"neummu/internal/trace"
)

const traceSweepBody = `{"quick":true,"models":["CNN-1","RNN-1"],"batches":[4],"mmus":["neummu","iommu"]}`

// postTraced posts a body with an explicit X-Trace-Id header.
func postTraced(t *testing.T, ts *httptest.Server, path, body, traceID string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(trace.Header, traceID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func debugTrace(t *testing.T, ts *httptest.Server, id string) trace.Trace {
	t.Helper()
	_, body := get(t, ts, "/debug/traces/"+id)
	var tr trace.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decoding /debug/traces/%s: %v\n%s", id, err, body)
	}
	return tr
}

// TestSweepTraceSpans pins the tentpole contract on a single server: a
// sweep with an injected trace ID leaves one span per cell plus one
// request span under that ID, every span's stages sum to its total, cold
// cells carry compute time and counters, and a warm repetition of the
// same sweep shifts the mass to the cache stage with byte-identical
// response bodies.
func TestSweepTraceSpans(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	const id = "trace-sweep-test-0001"
	resp, cold := postTraced(t, ts, "/v1/sweep", traceSweepBody, id)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get(trace.Header); got != id {
		t.Errorf("response %s = %q, want %q", trace.Header, got, id)
	}

	tr := debugTrace(t, ts, id)
	var cells, requests int
	for _, sp := range tr.Spans {
		switch sp.Kind {
		case "cell":
			cells++
			// Cell spans attribute every nanosecond: stages sum to the total.
			if sp.Stages.Sum() != sp.TotalNS {
				t.Errorf("cell span %s: stages sum %d != total %d", sp.Name,
					sp.Stages.Sum(), sp.TotalNS)
			}
			if sp.Hit {
				t.Errorf("cold cell %s marked as cache hit", sp.Name)
			}
			if sp.Stages[trace.StageCompute] <= 0 {
				t.Errorf("cold cell %s has no compute time: %+v", sp.Name, sp.Stages)
			}
			if sp.Counters == nil || sp.Counters.TranslationsIssued <= 0 {
				t.Errorf("cold cell %s missing counters: %+v", sp.Name, sp.Counters)
			}
		case "request":
			requests++
			if sp.Cells != 4 {
				t.Errorf("request span cells = %d, want 4", sp.Cells)
			}
			// Request spans carry the observed wall duration; the cells'
			// stage work happens inside it, so total dominates merge.
			if sp.TotalNS < sp.Stages[trace.StageMerge] {
				t.Errorf("request span total %d < merge %d", sp.TotalNS,
					sp.Stages[trace.StageMerge])
			}
		default:
			t.Errorf("unknown span kind %q", sp.Kind)
		}
	}
	if cells != 4 || requests != 1 {
		t.Fatalf("spans under %s: %d cells, %d requests; want 4 and 1", id, cells, requests)
	}

	// Warm repetition: identical bytes, hit spans, no compute.
	const warmID = "trace-sweep-test-0002"
	_, warm := postTraced(t, ts, "/v1/sweep", traceSweepBody, warmID)
	if !bytes.Equal(cold, warm) {
		t.Fatal("traced warm sweep body differs from cold body")
	}
	for _, sp := range debugTrace(t, ts, warmID).Spans {
		if sp.Kind != "cell" {
			continue
		}
		if !sp.Hit {
			t.Errorf("warm cell %s not a cache hit", sp.Name)
		}
		if sp.Stages[trace.StageCompute] != 0 || sp.Stages[trace.StageDisk] != 0 {
			t.Errorf("warm cell %s has compute/disk time: %+v", sp.Name, sp.Stages)
		}
		if sp.Stages[trace.StageCache] <= 0 {
			t.Errorf("warm cell %s has no cache time", sp.Name)
		}
	}
	_ = s
}

// TestTraceIDMintedWhenAbsent pins the minting path: a request without an
// inbound X-Trace-Id gets a fresh 32-hex-char ID on the response, and its
// spans are retrievable under it.
func TestTraceIDMintedWhenAbsent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, _ := postTraced(t, ts, "/v1/sim",
		`{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["neummu"],"page_sizes":["4KB"]}`, "")
	id := resp.Header.Get(trace.Header)
	if len(id) != 32 {
		t.Fatalf("minted trace ID %q, want 32 hex chars", id)
	}
	tr := debugTrace(t, ts, id)
	if len(tr.Spans) != 2 { // one cell + one request
		t.Fatalf("spans under minted ID = %d, want 2: %+v", len(tr.Spans), tr.Spans)
	}
}

// TestDiskHitSpans pins disk-stage attribution: with a durable tier, a
// restartlike second server resolving the same cells answers them from
// disk — spans carry disk time, no compute, and DiskHit set.
func TestDiskHitSpans(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st})
	postTraced(t, ts1, "/v1/sweep", traceSweepBody, "disk-seed")
	s1.Close() // drain write-behind
	ts1.Close()

	_, ts2 := newTestServer(t, Config{Workers: 2, Store: st})
	const id = "disk-warm-trace"
	postTraced(t, ts2, "/v1/sweep", traceSweepBody, id)
	for _, sp := range debugTrace(t, ts2, id).Spans {
		if sp.Kind != "cell" {
			continue
		}
		if !sp.DiskHit || sp.Hit {
			t.Errorf("cell %s: hit=%v disk_hit=%v, want disk hit only", sp.Name, sp.Hit, sp.DiskHit)
		}
		if sp.Stages[trace.StageDisk] <= 0 || sp.Stages[trace.StageCompute] != 0 {
			t.Errorf("cell %s stages = %+v, want disk>0 compute=0", sp.Name, sp.Stages)
		}
	}
}

// TestSlowCellLog pins the slow-cell surface: with a 1ns threshold every
// simulated cell qualifies, so /debug/traces lists slow cells, slowest
// first.
func TestSlowCellLog(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Trace: trace.Config{SlowThreshold: time.Nanosecond}})
	postTraced(t, ts, "/v1/sweep", traceSweepBody, "slow-test")
	_, body := get(t, ts, "/debug/traces")
	var list trace.TraceList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.SlowCells) != 4 {
		t.Fatalf("slow cells = %d, want 4", len(list.SlowCells))
	}
	for i := 1; i < len(list.SlowCells); i++ {
		if list.SlowCells[i].Stages[trace.StageCompute] > list.SlowCells[i-1].Stages[trace.StageCompute] {
			t.Errorf("slow cells not sorted by compute time at %d", i)
		}
	}
	if len(list.Traces) == 0 || list.Traces[0].TraceID != "slow-test" {
		t.Errorf("trace listing = %+v, want slow-test most recent", list.Traces)
	}
}

// inventory lists an exposition's families as "name type label-keys",
// sorted, leaving out the le and quantile labels of histograms and
// summaries.
func inventory(e *trace.Exposition) []string {
	var out []string
	for _, f := range e.Families {
		keys := map[string]bool{}
		for _, s := range f.Samples {
			for k := range s.Labels {
				if k != "le" && k != "quantile" {
					keys[k] = true
				}
			}
		}
		out = append(out, strings.Join(append([]string{f.Name, f.Type}, slices.Sorted(maps.Keys(keys))...), " "))
	}
	slices.Sort(out)
	return out
}

// TestMetricsPrometheus pins the machine-readable twin of /metrics: the
// exposition parses under the strict linter, holds exactly the worker's
// family inventory, and two scrapes separated by work are monotone.
func TestMetricsPrometheus(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Workers: 2, Store: st})

	postTraced(t, ts, "/v1/sweep", traceSweepBody, "")
	resp, body1 := get(t, ts, "/metrics?format=prometheus")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	prev, err := trace.ParseProm(body1)
	if err != nil {
		t.Fatalf("first scrape invalid: %v\n%s", err, body1)
	}
	want := []string{
		"neuserve_cache_bytes gauge cache",
		"neuserve_cache_cancels_total counter cache",
		"neuserve_cache_entries gauge cache",
		"neuserve_cache_evictions_total counter cache",
		"neuserve_cache_hits_total counter cache",
		"neuserve_cache_joins_total counter cache",
		"neuserve_cache_max_bytes gauge cache",
		"neuserve_cache_misses_total counter cache",
		"neuserve_cells_served_total counter",
		"neuserve_cells_simulated_total counter",
		"neuserve_disk_tier_bytes gauge",
		"neuserve_disk_tier_enabled gauge",
		"neuserve_disk_tier_entries gauge",
		"neuserve_disk_tier_max_bytes gauge",
		"neuserve_disk_tier_ops_total counter op",
		"neuserve_disk_tier_pending_writes gauge",
		"neuserve_figure_latency_seconds summary",
		"neuserve_figures_built_total counter",
		"neuserve_figures_served_total counter",
		"neuserve_overloads_total counter",
		"neuserve_queue_depth gauge",
		"neuserve_requests_total counter",
		"neuserve_sim_counters_total counter counter",
		"neuserve_stage_duration_seconds histogram stage",
		"neuserve_sweep_latency_seconds summary",
		"neuserve_sweeps_total counter",
		"neuserve_uptime_seconds gauge",
		"neuserve_workers gauge",
	}
	if got := inventory(prev); !slices.Equal(got, want) {
		t.Errorf("family inventory:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if f, _ := prev.Family("neuserve_sim_counters_total"); f != nil {
		var issued float64
		for _, s := range f.Samples {
			if s.Labels["counter"] == "translations_issued" {
				issued = s.Value
			}
		}
		if issued <= 0 {
			t.Errorf("sim counter translations_issued = %v, want > 0", issued)
		}
	}
	if f, _ := prev.Family("neuserve_stage_duration_seconds"); f != nil {
		var computeCount float64
		for _, s := range f.Samples {
			if s.Name == "neuserve_stage_duration_seconds_count" && s.Labels["stage"] == "compute" {
				computeCount = s.Value
			}
		}
		if computeCount != 4 {
			t.Errorf("compute-stage histogram count = %v, want 4", computeCount)
		}
	}

	postTraced(t, ts, "/v1/sweep", traceSweepBody, "")
	_, body2 := get(t, ts, "/metrics?format=prometheus")
	cur, err := trace.ParseProm(body2)
	if err != nil {
		t.Fatalf("second scrape invalid: %v", err)
	}
	if err := trace.CheckMonotonic(prev, cur); err != nil {
		t.Errorf("scrapes not monotone: %v", err)
	}
	if f, ok := cur.Family("neuserve_sweeps_total"); !ok || f.Samples[0].Value != 2 {
		t.Errorf("neuserve_sweeps_total = %+v after two sweeps, want 2", f)
	}
}
