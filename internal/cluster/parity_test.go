package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"neummu/internal/serve"
	"neummu/internal/trace"
)

// headerNames lists a response's header names, sorted.
func headerNames(h http.Header) []string {
	names := make([]string, 0, len(h))
	for k := range h {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// TestRolesAnswerAlike sends the same requests to a single process and to
// a coordinator and asserts the two roles answer with the same status,
// the same header names, the same Content-Type, X-Neuserve-Cells and
// X-Neuserve-Deprecated values, the same body, and the caller's trace ID.
// Afterwards the coordinator's JSON /metrics counts each request once.
func TestRolesAnswerAlike(t *testing.T) {
	single := newWorker(t, nil)
	c, coord := newCoordinator(t, Config{Workers: []string{newWorker(t, nil).ts.URL}})
	const cellsBody = `{"effort":{"mode":"quick"},"points":[
		{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4},
		{"kind":"neummu","page_size":"2MB","model":"RNN-1","batch":1}]}`
	const nPoints = 2
	cases := []struct {
		name, path, body string
		status           int
		deprecated       bool
	}{
		{"sweep, legacy quick", "/v1/sweep", testSweep, 200, true},
		{"sim, effort object", "/v1/sim", `{"effort":{"mode":"quick"},"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`, 200, false},
		{"cells, effort object", "/v1/cells", cellsBody, 200, false},
		{"bad request", "/v1/sweep", `{"mmus":["tpu"]}`, 400, false},
	}
	for i, tc := range cases {
		id := "parity-" + string(rune('a'+i))
		want, wantBody := postWithTrace(t, single.ts.URL, tc.path, tc.body, id)
		got, gotBody := postWithTrace(t, coord.URL, tc.path, tc.body, id)
		if got.StatusCode != tc.status || want.StatusCode != tc.status {
			t.Fatalf("%s: status coordinator %d, single %d, want %d: %s",
				tc.name, got.StatusCode, want.StatusCode, tc.status, gotBody)
		}
		if g, w := headerNames(got.Header), headerNames(want.Header); !slices.Equal(g, w) {
			t.Errorf("%s: header names differ:\n coordinator %v\n      single %v", tc.name, g, w)
		}
		for _, h := range []string{"Content-Type", "X-Neuserve-Cells", serve.DeprecationHeader} {
			if g, w := got.Header.Get(h), want.Header.Get(h); g != w {
				t.Errorf("%s: %s coordinator %q, single %q", tc.name, h, g, w)
			}
		}
		if dep := got.Header.Get(serve.DeprecationHeader) != ""; dep != tc.deprecated {
			t.Errorf("%s: deprecation header sent = %v, want %v", tc.name, dep, tc.deprecated)
		}
		for role, resp := range map[string]*http.Response{"coordinator": got, "single": want} {
			if echoed := resp.Header.Get(trace.Header); echoed != id {
				t.Errorf("%s: %s echoed trace id %q, want %q", tc.name, role, echoed, id)
			}
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: bodies differ:\n coordinator %s\n      single %s", tc.name, gotBody, wantBody)
		}
	}

	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	// Four POSTs plus this scrape; one 8-cell sweep, one sim and one
	// cells request completed, each booked exactly once.
	if m.Requests != 5 || m.Sweeps != 1 || m.CellsServed != 9+nPoints || m.SweepLatencyMS.Count != 3 {
		t.Errorf("coordinator metrics: requests %d, sweeps %d, cells_served %d, latency count %d; want 5, 1, %d, 3",
			m.Requests, m.Sweeps, m.CellsServed, m.SweepLatencyMS.Count, 9+nPoints)
	}
	if direct := c.Metrics(); direct.Sweeps != m.Sweeps || direct.CellsServed != m.CellsServed {
		t.Errorf("Coordinator.Metrics() = %d sweeps, %d cells; /metrics says %d, %d",
			direct.Sweeps, direct.CellsServed, m.Sweeps, m.CellsServed)
	}
}

// TestWorkerOverloadPassesThrough: a worker answering its shard with 429
// is alive and shedding load. The coordinator passes the 429 overloaded
// envelope with Retry-After to the client on every cell endpoint, keeps
// the worker healthy, and re-routes nothing.
func TestWorkerOverloadPassesThrough(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cells" {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	t.Cleanup(stub.Close)
	c, ts := newCoordinator(t, Config{Workers: []string{stub.URL}})
	for _, req := range []struct{ path, body string }{
		{"/v1/sweep", testSweep},
		{"/v1/sim", `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`},
		{"/v1/cells", `{"quick":true,"points":[{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4}]}`},
	} {
		resp, body := post(t, ts.URL, req.path, req.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s: status = %d (%s), want 429", req.path, resp.StatusCode, body)
			continue
		}
		var env serve.ErrorBody
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != serve.ErrCodeOverloaded {
			t.Errorf("%s: body %s is not the overloaded envelope (%v)", req.path, body, err)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", req.path)
		}
	}
	m := c.Metrics()
	if !m.Workers[0].Healthy || m.WorkersHealthy != 1 {
		t.Error("overloaded worker was marked down")
	}
	if m.CellsRerouted != 0 || m.Workers[0].CellsRerouted != 0 {
		t.Errorf("cells re-routed off an overloaded worker: %d", m.CellsRerouted)
	}
}

// TestFirstCellErrorStreams pins the first-cell rule on the coordinator:
// a cell failure that is neither overload nor unavailability streams the
// documented error line even on the first cell — the terminal
// {"error": ...} line on /v1/sweep, an {"i": N, "error": ...} line per
// cell on /v1/cells — while /v1/sim answers the 500 internal envelope.
func TestFirstCellErrorStreams(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cells" {
			w.Write([]byte("ok\n"))
			return
		}
		var req serve.CellsRequest
		json.NewDecoder(r.Body).Decode(&req)
		enc := json.NewEncoder(w)
		for i := range req.Points {
			enc.Encode(serve.CellLine{I: i, Err: "cell failed"})
		}
	}))
	t.Cleanup(stub.Close)
	_, ts := newCoordinator(t, Config{Workers: []string{stub.URL}})

	resp, body := post(t, ts.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 || string(body) != `{"error":"cell failed"}`+"\n" {
		t.Errorf("sweep: status %d, body %q; want 200 and one terminal error line", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL, "/v1/cells", `{"quick":true,"points":[
		{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4},
		{"kind":"iommu","page_size":"4KB","model":"RNN-1","batch":4}]}`)
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if resp.StatusCode != 200 || len(lines) != 2 {
		t.Errorf("cells: status %d, body %q; want 200 and one line per point", resp.StatusCode, body)
	}
	for i, l := range lines {
		var cl serve.CellLine
		if err := json.Unmarshal(l, &cl); err != nil || cl.I != i || cl.Err != "cell failed" {
			t.Errorf("cells line %d = %s, want point %d's error", i, l, i)
		}
	}
	resp, body = post(t, ts.URL, "/v1/sim", `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`)
	var env serve.ErrorBody
	if resp.StatusCode != 500 || json.Unmarshal(body, &env) != nil || env.Error.Code != serve.ErrCodeInternal {
		t.Errorf("sim: status %d, body %q; want the 500 internal envelope", resp.StatusCode, body)
	}
}
