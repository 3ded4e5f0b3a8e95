package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neummu/internal/core"
	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/serve"
	"neummu/internal/vm"
)

// --- ring ---

func TestRingDeterministicAndStable(t *testing.T) {
	workers := []string{"http://a", "http://b", "http://c"}
	r1 := newRing(workers, 64)
	r2 := newRing([]string{"http://c", "http://a", "http://b"}, 64)
	counts := map[string]int{}
	for i := 0; i < 4096; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		w1 := r1.owner(h, nil)
		if w2 := r2.owner(h, nil); w1 != w2 {
			t.Fatalf("hash %d: owner depends on declaration order (%s vs %s)", i, w1, w2)
		}
		counts[w1]++
	}
	for _, w := range workers {
		if counts[w] < 4096/3/4 {
			t.Errorf("worker %s owns only %d/4096 cells — distribution badly skewed: %v", w, counts[w], counts)
		}
	}
	// Excluding a worker moves only its cells.
	moved := 0
	for i := 0; i < 4096; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		before := r1.owner(h, nil)
		after := r1.owner(h, func(w string) bool { return w == "http://b" })
		if after == "http://b" {
			t.Fatal("excluded worker still selected")
		}
		if before != after {
			if before != "http://b" {
				t.Fatalf("hash %d moved from healthy worker %s to %s", i, before, after)
			}
			moved++
		}
	}
	if moved != counts["http://b"] {
		t.Errorf("moved %d cells, want exactly b's %d", moved, counts["http://b"])
	}
	if got := r1.owner(42, func(string) bool { return true }); got != "" {
		t.Errorf("all-excluded owner = %q, want empty", got)
	}
	if got := newRing(nil, 0).owner(42, nil); got != "" {
		t.Errorf("empty ring owner = %q, want empty", got)
	}
}

// --- fixtures ---

// testWorker is one in-process neuserve worker.
type testWorker struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newWorker(t *testing.T, wrap func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	s := serve.New(serve.Config{Workers: 2})
	var h http.Handler = s
	if wrap != nil {
		h = wrap(s)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return &testWorker{srv: s, ts: ts}
}

func newCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(func() { ts.Close(); c.Close() })
	return c, ts
}

func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// an 8-cell quick sweep: enough cells that every worker in a small fleet
// owns a few.
const testSweep = `{"quick":true,"models":["CNN-1","RNN-1"],"batches":[1,4],"mmus":["neummu","iommu"]}`

// referenceBody is the single-process golden for a request body.
func referenceBody(t *testing.T, body string) []byte {
	t.Helper()
	w := newWorker(t, nil)
	_, ref := post(t, w.ts.URL, "/v1/sweep", body)
	return ref
}

// --- acceptance: byte identity ---

// TestClusterByteIdenticalToSingleProcess is the acceptance bar: the
// coordinator's merged sweep body must equal the single process's bytes —
// with one worker and with three, cold caches and warm.
func TestClusterByteIdenticalToSingleProcess(t *testing.T) {
	ref := referenceBody(t, testSweep)
	for _, workers := range []int{1, 3} {
		urls := make([]string, workers)
		for i := range urls {
			urls[i] = newWorker(t, nil).ts.URL
		}
		_, ts := newCoordinator(t, Config{Workers: urls})
		resp, cold := post(t, ts.URL, "/v1/sweep", testSweep)
		if resp.StatusCode != 200 {
			t.Fatalf("%d workers: status = %d: %s", workers, resp.StatusCode, cold)
		}
		if !bytes.Equal(cold, ref) {
			t.Errorf("%d workers: cold body differs from single-process reference:\n got: %s\nwant: %s",
				workers, cold, ref)
		}
		_, warm := post(t, ts.URL, "/v1/sweep", testSweep)
		if !bytes.Equal(warm, ref) {
			t.Errorf("%d workers: warm body differs from single-process reference", workers)
		}
	}
}

// TestClusterSimByteIdentical: /v1/sim through the coordinator equals the
// single process's response.
func TestClusterSimByteIdentical(t *testing.T) {
	const sim = `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`
	w := newWorker(t, nil)
	_, ref := post(t, w.ts.URL, "/v1/sim", sim)

	_, ts := newCoordinator(t, Config{Workers: []string{newWorker(t, nil).ts.URL}})
	resp, got := post(t, ts.URL, "/v1/sim", sim)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("sim body differs:\n got: %s\nwant: %s", got, ref)
	}
	// Grid-shaped payloads are rejected exactly like the single process.
	resp, _ = post(t, ts.URL, "/v1/sim", testSweep)
	if resp.StatusCode != 400 {
		t.Errorf("grid sim status = %d, want 400", resp.StatusCode)
	}
}

// TestClusterBadRequestsMatchSingleProcess: validation runs on the
// coordinator, with the same outcomes as a worker would produce.
func TestClusterBadRequestsMatchSingleProcess(t *testing.T) {
	_, ts := newCoordinator(t, Config{Workers: []string{newWorker(t, nil).ts.URL}})
	for _, body := range []string{
		`{not json`,
		`{"mmus":["tpu"]}`,
		`{"models":["VGG-99"]}`,
		`{"batches":[0]}`,
		`{"unknown_field":1}`,
	} {
		resp, _ := post(t, ts.URL, "/v1/sweep", body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// --- cache affinity ---

// TestConsistentRoutingKeepsCacheAffinity: a repeated sweep must land
// every cell on the worker that simulated it the first time, so the
// second pass simulates nothing anywhere.
func TestConsistentRoutingKeepsCacheAffinity(t *testing.T) {
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	c, ts := newCoordinator(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})
	post(t, ts.URL, "/v1/sweep", testSweep)
	first := w1.srv.Metrics().CellsSimulated + w2.srv.Metrics().CellsSimulated
	if first != 8 {
		t.Fatalf("first sweep simulated %d cells across the fleet, want 8", first)
	}
	post(t, ts.URL, "/v1/sweep", testSweep)
	second := w1.srv.Metrics().CellsSimulated + w2.srv.Metrics().CellsSimulated
	if second != first {
		t.Errorf("repeat sweep re-simulated %d cells — routing lost cache affinity", second-first)
	}
	m := c.Metrics()
	if m.CellsServed != 16 || m.Sweeps != 2 {
		t.Errorf("coordinator metrics = %+v", m)
	}
	for _, wm := range m.Workers {
		if !wm.Healthy || wm.Failures != 0 {
			t.Errorf("worker %s unexpectedly unhealthy: %+v", wm.URL, wm)
		}
	}
}

// connCountingWorker is a worker whose server counts the TCP connections
// it accepts.
func connCountingWorker(t *testing.T) (*testWorker, *atomic.Int64) {
	t.Helper()
	s := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewUnstartedServer(s)
	conns := new(atomic.Int64)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() { ts.Close(); s.Close() })
	return &testWorker{srv: s, ts: ts}, conns
}

// closeNotifier is a client transport that reports the request path of
// every response body the client closes.
type closeNotifier struct {
	base   http.RoundTripper
	closed chan string
}

type notifyingBody struct {
	io.ReadCloser
	closed func()
}

func (b notifyingBody) Close() error {
	err := b.ReadCloser.Close()
	b.closed()
	return err
}

func (n *closeNotifier) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := n.base.RoundTrip(r)
	if err == nil {
		path := r.URL.Path
		resp.Body = notifyingBody{resp.Body, func() { n.closed <- path }}
	}
	return resp, err
}

// TestDispatchReusesWorkerConnection: the coordinator reads each shard's
// stream to EOF, so sequential sweeps to one worker share one keep-alive
// connection instead of opening a new one per dispatch. The remote
// backend does the same against a single worker.
func TestDispatchReusesWorkerConnection(t *testing.T) {
	w, conns := connCountingWorker(t)
	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	// Sized to the sends: one startup health probe, then two dispatches
	// (the next probe is a minute away).
	tr := &closeNotifier{base: base, closed: make(chan string, 3)}
	_, ts := newCoordinator(t, Config{
		Workers:        []string{w.ts.URL},
		HealthInterval: time.Minute,
		Client:         &http.Client{Transport: tr},
	})
	// The dispatch goroutine closes the body just after the sweep's last
	// cell resolves; wait for it, so the next sweep's dispatch does not
	// race it for the connection.
	waitClosed := func(path string) {
		t.Helper()
		timeout := time.After(5 * time.Second)
		for {
			select {
			case p := <-tr.closed:
				if p == path {
					return
				}
			case <-timeout:
				t.Fatalf("no %s response body was closed", path)
			}
		}
	}
	// The startup health probe closes its body unread, which drops its
	// connection; count only what the sweeps open.
	waitClosed("/healthz")
	before := conns.Load()
	for i := 0; i < 2; i++ {
		if resp, body := post(t, ts.URL, "/v1/sweep", testSweep); resp.StatusCode != 200 {
			t.Fatalf("sweep %d: status = %d: %s", i, resp.StatusCode, body)
		}
		waitClosed("/v1/cells")
	}
	if got := conns.Load() - before; got != 1 {
		t.Errorf("two sequential sweeps opened %d worker connections, want 1", got)
	}

	rw, rconns := connCountingWorker(t)
	remote := SweepFunc(rw.ts.URL, nil)
	points := []exp.Point{{Model: "CNN-1", Batch: 1, Kind: core.NeuMMU, PageSize: vm.Page4K}}
	for i := 0; i < 2; i++ {
		if _, err := remote(points, exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}}); err != nil {
			t.Fatalf("remote call %d: %v", i, err)
		}
	}
	if got := rconns.Load(); got != 1 {
		t.Errorf("two sequential remote calls opened %d connections, want 1", got)
	}
}

// --- failure paths ---

// truncatingHandler wraps a worker and aborts the response of every
// /v1/cells request after `limit` NDJSON lines — a worker that dies
// mid-shard, from the coordinator's point of view.
type truncatingHandler struct {
	inner http.Handler
	limit int
	armed atomic.Bool
	hits  atomic.Int64
}

type truncatingWriter struct {
	http.ResponseWriter
	remaining int
}

func (t *truncatingWriter) Write(b []byte) (int, error) {
	if t.remaining <= 0 {
		// The lines already written reach the coordinator before the
		// worker dies: the server flushes only before it waits, so rows
		// of ready cells may still sit in its buffer here.
		t.Flush()
		panic(http.ErrAbortHandler)
	}
	t.remaining -= bytes.Count(b, []byte("\n"))
	return t.ResponseWriter.Write(b)
}

func (t *truncatingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/cells" && h.armed.Load() {
		h.hits.Add(1)
		w = &truncatingWriter{ResponseWriter: w, remaining: h.limit}
	}
	h.inner.ServeHTTP(w, r)
}

// newTruncatingWorker returns a worker whose /v1/cells responses die
// after `limit` lines once armed.
func newTruncatingWorker(t *testing.T, limit int) (*testWorker, *truncatingHandler) {
	wrap := &truncatingHandler{limit: limit}
	w := newWorker(t, func(h http.Handler) http.Handler { wrap.inner = h; return wrap })
	return w, wrap
}

// shardSplit computes how many of testSweep's 8 cells each worker URL
// owns under the coordinator's routing — the same expansion, hash, and
// ring the coordinator uses. Port assignment is random, so tests that
// need a faulty worker to own cells pick the majority owner.
func shardSplit(t *testing.T, urls ...string) map[string]int {
	t.Helper()
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, Workers: 1})
	points, err := serve.ExpandSweep(h, serve.SweepRequest{
		Quick: true, Models: []string{"CNN-1", "RNN-1"}, Batches: []int{1, 4},
		MMUs: []string{"neummu", "iommu"},
	}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	r := newRing(urls, 64)
	counts := map[string]int{}
	for _, p := range points {
		counts[r.owner(serve.CellHash64(p, h.Options().Effort), nil)]++
	}
	return counts
}

// TestWorkerDiesMidShard: a worker that streams part of its shard and
// dies must cost only its missing cells — they re-route to the healthy
// worker, already-received results are kept, and the merged body is
// still byte-identical to the single-process reference.
func TestWorkerDiesMidShard(t *testing.T) {
	ref := referenceBody(t, testSweep)
	wa, wrapA := newTruncatingWorker(t, 1)
	wb, wrapB := newTruncatingWorker(t, 1)
	// Ports (and so hash placement) vary per run; make whichever worker
	// owns the larger shard the one that dies, so the faulty shard always
	// has at least 2 cells (one streamed, the rest missing).
	flaky, good, flakyWrap := wa, wb, wrapA
	split := shardSplit(t, wa.ts.URL, wb.ts.URL)
	if split[wb.ts.URL] > split[wa.ts.URL] {
		flaky, good, flakyWrap = wb, wa, wrapB
	}
	flakyWrap.armed.Store(true)
	// A long health interval keeps the failed worker from being probed
	// back to healthy mid-test.
	c, ts := newCoordinator(t, Config{
		Workers:        []string{flaky.ts.URL, good.ts.URL},
		HealthInterval: time.Hour,
	})
	resp, body := post(t, ts.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, ref) {
		t.Errorf("body with mid-shard death differs from reference:\n got: %s\nwant: %s", body, ref)
	}
	m := c.Metrics()
	var fm, gm WorkerMetrics
	for _, wm := range m.Workers {
		if wm.URL == flaky.ts.URL {
			fm = wm
		} else {
			gm = wm
		}
	}
	if fm.CellsAssigned < 2 {
		t.Fatalf("flaky worker owned %d cells; the sweep grid is too small to exercise truncation", fm.CellsAssigned)
	}
	if fm.Healthy {
		t.Error("flaky worker still marked healthy after dying mid-shard")
	}
	if fm.CellsCompleted != 1 || fm.CellsRerouted != fm.CellsAssigned-1 {
		t.Errorf("flaky worker metrics = %+v, want 1 completed, rest rerouted", fm)
	}
	// The good worker re-simulated only the missing cells: every cell in
	// the grid was simulated exactly once across the fleet, except that
	// nothing the flaky worker already streamed was re-run.
	if gm.CellsAssigned != 8-fm.CellsAssigned+fm.CellsRerouted {
		t.Errorf("good worker was assigned %d cells, want %d own + %d rerouted",
			gm.CellsAssigned, 8-fm.CellsAssigned, fm.CellsRerouted)
	}
	if sim := good.srv.Metrics().CellsSimulated; sim != gm.CellsAssigned {
		t.Errorf("good worker simulated %d cells, want %d (only its own plus the missing)", sim, gm.CellsAssigned)
	}
	if m.CellsRerouted != fm.CellsRerouted {
		t.Errorf("coordinator rerouted = %d, want %d", m.CellsRerouted, fm.CellsRerouted)
	}
}

// TestAllWorkersDown503: with every worker unreachable the coordinator
// must refuse sweeps with a clean 503 — never hang, never 200-then-stall.
func TestAllWorkersDown503(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens here any more
	c, ts := newCoordinator(t, Config{
		Workers:        []string{dead.URL},
		HealthInterval: 20 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Metrics().WorkersHealthy != 0 {
		if time.Now().After(deadline) {
			t.Fatal("health checker never marked the dead worker down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, b := post(t, ts.URL, "/v1/sweep", testSweep)
		status, body = resp.StatusCode, b
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep against a dead fleet hung")
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", status, body)
	}
	if !strings.Contains(string(body), "no healthy workers") {
		t.Errorf("503 body = %q", body)
	}
	if resp, _ := post(t, ts.URL, "/v1/sim", `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`); resp.StatusCode != 503 {
		t.Errorf("sim status = %d, want 503", resp.StatusCode)
	}
}

// TestSlowWorkerTimeout: a worker that accepts a shard and never answers
// must be cut off at ShardTimeout and its cells re-routed; the sweep
// still completes with the reference bytes.
func TestSlowWorkerTimeout(t *testing.T) {
	ref := referenceBody(t, testSweep)
	mkWedge := func() (*testWorker, *atomic.Bool) {
		var armed atomic.Bool
		w := newWorker(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/cells" && armed.Load() {
					// Drain the body so net/http watches the connection; then
					// wedge until the coordinator times out and disconnects.
					io.Copy(io.Discard, r.Body)
					<-r.Context().Done()
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		return w, &armed
	}
	wa, armA := mkWedge()
	wb, armB := mkWedge()
	// Wedge the majority owner so the slow shard is never empty, and
	// pre-warm the other worker so its shards (own and re-routed) answer
	// from cache: the shard timeout then cuts off only the wedged worker,
	// however slow the host or the race detector makes simulation. The
	// bytes are identical warm or cold — that is the service's guarantee.
	slow, good, arm := wa, wb, armA
	split := shardSplit(t, wa.ts.URL, wb.ts.URL)
	if split[wb.ts.URL] > split[wa.ts.URL] {
		slow, good, arm = wb, wa, armB
	}
	post(t, good.ts.URL, "/v1/sweep", testSweep)
	arm.Store(true)
	c, ts := newCoordinator(t, Config{
		Workers: []string{slow.ts.URL, good.ts.URL},
		// The good worker answers from its warm cache well inside this;
		// only the wedged worker runs into it.
		ShardTimeout:   2 * time.Second,
		HealthInterval: time.Hour,
	})
	start := time.Now()
	resp, body := post(t, ts.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, ref) {
		t.Errorf("body with slow worker differs from reference:\n got: %s\nwant: %s", body, ref)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Errorf("sweep took %v — the shard timeout did not cut the slow worker off", elapsed)
	}
	m := c.Metrics()
	if m.CellsRerouted == 0 {
		t.Error("no cells rerouted off the slow worker")
	}
}

// TestRetryBudgetSpent: when the only worker keeps dying, the sweep must
// terminate with an error line rather than re-routing forever.
func TestRetryBudgetSpent(t *testing.T) {
	flaky, flakyWrap := newTruncatingWorker(t, 0) // dies before the first line
	flakyWrap.armed.Store(true)
	_, ts := newCoordinator(t, Config{
		Workers:        []string{flaky.ts.URL},
		MaxRetries:     2,
		HealthInterval: time.Hour,
	})
	resp, body := post(t, ts.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 && resp.StatusCode != 503 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if resp.StatusCode == 200 {
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		last := lines[len(lines)-1]
		if !strings.Contains(last, `"error"`) {
			t.Errorf("final line is not an error: %q", last)
		}
	}
	if got := flakyWrap.hits.Load(); got > 8 {
		t.Errorf("flaky worker was dispatched %d times — retry budget not enforced", got)
	}
}

// --- the exp remote backend ---

// TestRemoteSweepMatchesLocal: a harness with Options.Remote pointed at a
// cluster must return the same rows (order, perf, cycles) as the local
// engine.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	_, ts := newCoordinator(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})

	local := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, Workers: 1})
	want, err := local.Sweep(sweepAxes())
	if err != nil {
		t.Fatal(err)
	}
	remote := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, Remote: SweepFunc(ts.URL, nil)})
	got, err := remote.Sweep(sweepAxes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d remote rows vs %d local", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Point != w.Point || g.Perf != w.Perf ||
			g.Result.Cycles != w.Result.Cycles || g.Result.Translations != w.Result.Translations {
			t.Errorf("row %d: remote %s perf=%v cycles=%d vs local perf=%v cycles=%d",
				i, g.Point.Label(), g.Perf, g.Result.Cycles, w.Perf, w.Result.Cycles)
		}
	}
	// Unknown models fail with the engine's deterministic lowest-index
	// error semantics (here: a validation error from the worker).
	if _, err := remote.SweepPoints([]exp.Point{{Model: "VGG-99", Batch: 1}}); err == nil {
		t.Error("remote sweep of a bogus point did not fail")
	}
}

func sweepAxes() exp.Axes {
	return exp.Axes{
		Models: []string{"CNN-1", "RNN-1"}, Batches: []int{4},
	}
}

// --- cells endpoint on the coordinator ---

// TestCoordinatorCellsEndpoint: the coordinator speaks the worker wire
// protocol itself, so backends can target either tier.
func TestCoordinatorCellsEndpoint(t *testing.T) {
	w := newWorker(t, nil)
	_, ts := newCoordinator(t, Config{Workers: []string{w.ts.URL}})
	body := `{"quick":true,"points":[
		{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4},
		{"kind":"neummu","page_size":"4KB","model":"RNN-1","batch":4}]}`
	resp, got := post(t, ts.URL, "/v1/cells", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, got)
	}
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), got)
	}
	for i, l := range lines {
		var cl serve.CellLine
		if err := json.Unmarshal([]byte(l), &cl); err != nil {
			t.Fatal(err)
		}
		if cl.I != i || cl.Cycles <= 0 || cl.Err != "" {
			t.Errorf("line %d = %+v", i, cl)
		}
	}
	if resp, _ := post(t, ts.URL, "/v1/cells", `{"points":[]}`); resp.StatusCode != 400 {
		t.Errorf("empty points status = %d, want 400", resp.StatusCode)
	}
}

func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no workers did not fail")
	}
	if _, err := New(Config{Workers: []string{" ", ""}}); err == nil {
		t.Error("New with blank workers did not fail")
	}
	c, err := New(Config{Workers: []string{"http://a/", "http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Metrics().WorkersTotal; got != 1 {
		t.Errorf("duplicate worker URLs produced %d workers, want 1", got)
	}
}

// TestRemoteFiguresByteIdentical: every remote-safe figure rendered
// through a cluster-backed harness must equal the local render bytes —
// the paperfigs -cluster contract.
func TestRemoteFiguresByteIdentical(t *testing.T) {
	w := newWorker(t, nil)
	_, ts := newCoordinator(t, Config{Workers: []string{w.ts.URL}})
	local := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, Workers: 1})
	remote := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, Remote: SweepFunc(ts.URL, nil)})
	names := figures.RemoteNames()
	if len(names) == 0 {
		t.Fatal("no remote-safe figures registered")
	}
	for _, name := range names {
		var want, got bytes.Buffer
		if err := figures.Render(local, &want, name); err != nil {
			t.Fatalf("%s local: %v", name, err)
		}
		if err := figures.Render(remote, &got, name); err != nil {
			t.Fatalf("%s remote: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: cluster-backed render differs from local:\n got: %s\nwant: %s",
				name, got.Bytes(), want.Bytes())
		}
	}
	// Figures that need local per-component stats must be flagged off.
	for _, name := range []string{"fig12b", "fig14", "seqsweep", "steady"} {
		if figures.RemoteSafe(name) {
			t.Errorf("%s marked remote-safe but reads beyond headline metrics", name)
		}
	}
}

// TestInvariantClusterCountersMatchSingleProcess is the cluster leg of the
// invariants suite (run by cluster-smoke CI as `-run Invariant`): a 3-worker
// coordinator's merged sweep must carry exactly the counter bundles a single
// process produces — per row and in the summed summary line — and every
// merged bundle must satisfy the conservation laws. Byte identity of the
// whole body is asserted elsewhere; this test fails with the specific
// counter discrepancy when the merge path drops or double-counts a bundle.
func TestInvariantClusterCountersMatchSingleProcess(t *testing.T) {
	ref := referenceBody(t, testSweep)
	urls := make([]string, 3)
	for i := range urls {
		urls[i] = newWorker(t, nil).ts.URL
	}
	_, ts := newCoordinator(t, Config{Workers: urls})
	resp, got := post(t, ts.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, got)
	}

	parse := func(body []byte) ([]serve.CellRow, serve.SweepSummary) {
		t.Helper()
		var rows []serve.CellRow
		var sum serve.SweepSummary
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			if bytes.Contains(line, []byte(`"summary":true`)) {
				if err := json.Unmarshal(line, &sum); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var row serve.CellRow
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		return rows, sum
	}
	refRows, refSum := parse(ref)
	gotRows, gotSum := parse(got)
	if len(gotRows) != len(refRows) {
		t.Fatalf("merged %d rows, single process %d", len(gotRows), len(refRows))
	}
	var agg counters.Bundle
	for i := range gotRows {
		label := gotRows[i].Model + "/" + gotRows[i].MMU
		if gotRows[i].Counters != refRows[i].Counters {
			t.Errorf("row %d (%s): merged counters differ from single-process:\n got %+v\nwant %+v",
				i, label, gotRows[i].Counters, refRows[i].Counters)
		}
		if v := gotRows[i].Counters.Violations(); v != nil {
			t.Errorf("row %d (%s): merged bundle violates: %v", i, label, v)
		}
		agg = agg.Add(gotRows[i].Counters)
	}
	if gotSum.Counters != refSum.Counters {
		t.Errorf("summary counters differ from single-process:\n got %+v\nwant %+v",
			gotSum.Counters, refSum.Counters)
	}
	if gotSum.Counters != agg {
		t.Errorf("summary counters are not the sum of the merged rows")
	}
	if v := gotSum.Counters.Violations(); v != nil {
		t.Errorf("merged summary bundle violates: %v", v)
	}
}
