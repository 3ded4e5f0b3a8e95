package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"neummu/internal/serve"

	"neummu/internal/trace"
)

// postWithTrace posts a body with an explicit X-Trace-Id header.
func postWithTrace(t *testing.T, url, path, body, traceID string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(trace.Header, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func coordTrace(t *testing.T, url, id string) trace.Trace {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decoding /debug/traces/%s: %v", id, err)
	}
	return tr
}

// TestCoordinatorTracePropagation pins the wire contract: a traced sweep
// through the coordinator leaves per-cell spans at the coordinator (each
// naming the worker that answered it) AND spans on every worker's own
// tracer under the same trace ID — the header rode the /v1/cells dispatch.
func TestCoordinatorTracePropagation(t *testing.T) {
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	c, ts := newCoordinator(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})

	const id = "cluster-trace-0001"
	resp, body := postWithTrace(t, ts.URL, "/v1/sweep", testSweep, id)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(trace.Header); got != id {
		t.Errorf("response %s = %q, want %q", trace.Header, got, id)
	}

	tr := coordTrace(t, ts.URL, id)
	workerURLs := map[string]bool{w1.ts.URL: true, w2.ts.URL: true}
	var cells, requests int
	for _, sp := range tr.Spans {
		switch sp.Kind {
		case "cell":
			cells++
			if !workerURLs[sp.Worker] {
				t.Errorf("cell %s attributed to unknown worker %q", sp.Name, sp.Worker)
			}
			if sp.Attempts != 1 {
				t.Errorf("cell %s attempts = %d, want 1", sp.Name, sp.Attempts)
			}
			if sp.Err != "" {
				t.Errorf("cell %s unexpected error %q", sp.Name, sp.Err)
			}
		case "request":
			requests++
			if sp.Cells != 8 {
				t.Errorf("request span cells = %d, want 8", sp.Cells)
			}
		}
	}
	if cells != 8 || requests != 1 {
		t.Fatalf("coordinator spans: %d cells, %d requests; want 8 and 1", cells, requests)
	}

	// The trace ID crossed the wire: each worker recorded its shard's
	// cells (and one /v1/cells request span) under the same ID, and the
	// per-worker shard sizes seen by the coordinator match.
	perWorker := map[string]int{}
	for _, sp := range tr.Spans {
		if sp.Kind == "cell" {
			perWorker[sp.Worker]++
		}
	}
	totalWorkerCells := 0
	for url, w := range map[string]*testWorker{w1.ts.URL: w1, w2.ts.URL: w2} {
		wtr := w.srv.Tracer().ByTrace(id)
		if perWorker[url] == 0 {
			if len(wtr.Spans) != 0 {
				t.Errorf("worker %s has spans but coordinator assigned it no cells", url)
			}
			continue
		}
		if len(wtr.Spans) == 0 {
			t.Fatalf("worker %s has no trace %s despite %d assigned cells", url, id, perWorker[url])
		}
		var wCells int
		for _, sp := range wtr.Spans {
			if sp.Kind == "cell" {
				wCells++
			}
		}
		if wCells != perWorker[url] {
			t.Errorf("worker %s recorded %d cell spans, coordinator dispatched %d",
				url, wCells, perWorker[url])
		}
		totalWorkerCells += wCells
	}
	if totalWorkerCells != 8 {
		t.Errorf("worker cell spans total %d, want 8", totalWorkerCells)
	}
	_ = c
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

// TestCoordinatorMetricsPrometheus pins the coordinator's exposition: it
// parses under the strict linter, holds exactly the coordinator's family
// inventory (per-worker counters include both sides of re-route
// attribution), and two scrapes separated by work are monotone.
func TestCoordinatorMetricsPrometheus(t *testing.T) {
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	_, ts := newCoordinator(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})

	post(t, ts.URL, "/v1/sweep", testSweep)
	getProm := func() *trace.Exposition {
		t.Helper()
		fams, err := trace.ParseProm(getBody(t, ts.URL+"/metrics?format=prometheus"))
		if err != nil {
			t.Fatalf("exposition invalid: %v", err)
		}
		return fams
	}

	prev := getProm()
	want := []string{
		"neucoord_cells_from_store_total counter",
		"neucoord_cells_rerouted_total counter",
		"neucoord_cells_served_total counter",
		"neucoord_no_worker_errors_total counter",
		"neucoord_requests_from_store_total counter",
		"neucoord_requests_total counter",
		"neucoord_store_enabled gauge",
		"neucoord_sweep_latency_seconds summary",
		"neucoord_sweeps_total counter",
		"neucoord_uptime_seconds gauge",
		"neucoord_worker_cell_errors_total counter worker",
		"neucoord_worker_cells_adopted_total counter worker",
		"neucoord_worker_cells_assigned_total counter worker",
		"neucoord_worker_cells_completed_total counter worker",
		"neucoord_worker_cells_rerouted_total counter worker",
		"neucoord_worker_failures_total counter worker",
		"neucoord_worker_healthy gauge worker",
		"neucoord_worker_shards_total counter worker",
		"neucoord_workers gauge",
		"neucoord_workers_healthy gauge",
		"neuserve_stage_duration_seconds histogram stage",
	}
	if got := inventory(prev); !slices.Equal(got, want) {
		t.Errorf("family inventory:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if f, _ := prev.Family("neucoord_worker_cells_completed_total"); f != nil {
		var total float64
		for _, s := range f.Samples {
			total += s.Value
		}
		if total != 8 {
			t.Errorf("per-worker completed cells sum = %v, want 8", total)
		}
	}

	post(t, ts.URL, "/v1/sweep", testSweep)
	if err := trace.CheckMonotonic(prev, getProm()); err != nil {
		t.Errorf("scrapes not monotone: %v", err)
	}
}

// getBody GETs url and returns the body of a 200 response.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, %v: %s", url, resp.StatusCode, err, body)
	}
	return body
}

// TestMetricsParity is the /metrics parity law for both roles: every
// numeric leaf of a live JSON body has a Prometheus sample of the same
// value, and every sample has a leaf. The worker has a store and has
// served a figure so that no part of its body is empty.
func TestMetricsParity(t *testing.T) {
	ws := serve.New(serve.Config{Workers: 2, Store: openStore(t, t.TempDir())})
	wts := httptest.NewServer(ws)
	t.Cleanup(func() { wts.Close(); ws.Close() })
	_, ts := newCoordinator(t, Config{Workers: []string{wts.URL}, Store: openStore(t, t.TempDir())})
	post(t, ts.URL, "/v1/sweep", testSweep)
	post(t, ts.URL, "/v1/sweep", testSweep)
	getBody(t, wts.URL+"/v1/figures/fig8?quick=1")

	checkParity(t, "neuserve_", serve.Metrics{}, getBody(t, wts.URL+"/metrics"),
		"cells_per_sec", "simulated_per_sec", "cell_cache_hit_rate",
		"sweep_latency_ms.max", "figure_latency_ms.max")
	checkParity(t, "neucoord_", Metrics{}, getBody(t, ts.URL+"/metrics"),
		"sweep_latency_ms.max")
}

// checkParity holds one role's JSON /metrics body against the
// exposition trace.WriteMetrics renders from it, decoded into the role's
// snapshot type (the type of like). Each numeric leaf is perturbed in turn and the
// body re-rendered: the leaf must move a sample whose unperturbed value
// is the leaf's — as is, in seconds for a latency in ms, or as a
// summary's _sum for its mean — and every sample must move with some
// leaf. The leaves in noSample (the derived ratios and latency maxima)
// must move nothing.
func checkParity(t *testing.T, prefix string, like any, body []byte, noSample ...string) {
	t.Helper()
	render := func(body []byte) map[string]float64 {
		t.Helper()
		m := reflect.New(reflect.TypeOf(like))
		if err := json.Unmarshal(body, m.Interface()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteMetrics(trace.NewPromWriter(&buf), prefix, m.Elem().Interface()); err != nil {
			t.Fatal(err)
		}
		e, err := trace.ParseProm(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, f := range e.Families {
			for _, s := range f.Samples {
				out[s.Name+fmt.Sprint(s.Labels)] = s.Value
			}
		}
		return out
	}
	base := render(body)
	var tree map[string]any
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{}
	check := func(path string, obj map[string]any, key string, x float64, perturbed any) {
		orig := obj[key]
		obj[key] = perturbed
		after, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		obj[key] = orig
		matched, movedAny := false, false
		for id, v := range render(after) {
			if v == base[id] {
				continue
			}
			movedAny, moved[id] = true, true
			count, _ := obj["count"].(float64)
			switch b := base[id]; {
			case strings.Contains(id, "_seconds_sum"): // a summary's mean
				matched = matched || b == x/1e3*count
			case strings.Contains(id, "quantile:"): // a percentile in ms
				matched = matched || b == x/1e3
			default:
				matched = matched || b == x
			}
		}
		switch {
		case slices.Contains(noSample, path):
			if movedAny {
				t.Errorf("%s: JSON %s moved a sample but is listed as having none", prefix, path)
			}
		case !matched:
			t.Errorf("%s: JSON %s = %v has no Prometheus sample of that value", prefix, path, x)
		}
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case []any:
			for i, x := range v {
				walk(fmt.Sprintf("%s.%d", path, i), x)
			}
		case map[string]any:
			for k, x := range v {
				p := strings.TrimPrefix(path+"."+k, ".")
				switch x := x.(type) {
				case float64:
					check(p, v, k, x, x+1)
				case bool:
					check(p, v, k, map[bool]float64{true: 1}[x], !x)
				default:
					walk(p, x)
				}
			}
		}
	}
	walk("", tree)
	for id := range base {
		if !moved[id] {
			t.Errorf("%s: Prometheus %s has no JSON leaf", prefix, id)
		}
	}
}
