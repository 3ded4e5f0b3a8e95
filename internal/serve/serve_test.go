package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"neummu/internal/core"
	"neummu/internal/exp"
	"neummu/internal/figures"
)

// --- scheduler ---

func TestSchedulerRunsJobs(t *testing.T) {
	s := NewScheduler(4, 32)
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		if err := s.Submit(func() {
			defer wg.Done()
			mu.Lock()
			seen[i] = true
			mu.Unlock()
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	if len(seen) != 32 {
		t.Errorf("ran %d jobs, want 32", len(seen))
	}
	s.Close()
	if err := s.Submit(func() {}); err != ErrClosed {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

func TestSchedulerOverload(t *testing.T) {
	s := NewScheduler(1, 1)
	block := make(chan struct{})
	// Saturate: the worker parks on the first job, the queue holds one
	// more, and the next submit must be rejected.
	n := 0
	for {
		err := s.Submit(func() { <-block })
		if err == ErrOverloaded {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n > 8 {
			t.Fatal("scheduler never reported overload")
		}
	}
	close(block)
	s.Close() // must drain the parked jobs without deadlock
}

func TestSchedulerNormalization(t *testing.T) {
	s := NewScheduler(2, 0)
	if s.Workers() != 2 || cap(s.queue) != 256 {
		t.Errorf("workers=%d queue cap=%d, want 2/256", s.Workers(), cap(s.queue))
	}
	s.Close()
	s = NewScheduler(0, 1)
	if s.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("workers=%d, want GOMAXPROCS=%d", s.Workers(), runtime.GOMAXPROCS(0))
	}
	s.Close()
}

// TestSchedulerWorkConserving: with two workers, two jobs that each wait
// for the other to start must both run. A scheduler that pins jobs to a
// worker by key (the old hash-sharded design) can park both behind one
// worker and deadlock while the other worker idles.
func TestSchedulerWorkConserving(t *testing.T) {
	s := NewScheduler(2, 8)
	defer s.Close()
	var barrier sync.WaitGroup
	barrier.Add(2)
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		if err := s.Submit(func() {
			barrier.Done()
			barrier.Wait()
			done <- struct{}{}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a queued job waited while a worker idled: the scheduler is not work-conserving")
		}
	}
}

// --- cache ---

func inline(run func()) error {
	run()
	return nil
}

func TestCacheHitJoinMiss(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	computes := 0
	fl, err := c.Resolve(context.Background(), 1, inline, func() (int, error) { computes++; return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := fl.Wait(); v != 10 || fl.Hit {
		t.Errorf("first resolve: v=%d hit=%v", v, fl.Hit)
	}
	fl, _ = c.Resolve(context.Background(), 1, inline, func() (int, error) { computes++; return 99, nil })
	if v, _ := fl.Wait(); v != 10 || !fl.Hit {
		t.Errorf("second resolve: v=%d hit=%v, want cached 10", v, fl.Hit)
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1", computes)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Joins != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheJoinSharesOneCompute(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	started := make(chan struct{})
	release := make(chan struct{})
	var computes int
	// First resolver schedules onto a goroutine that parks until released.
	fl1, err := c.Resolve(context.Background(), 7, func(run func()) error {
		go func() { close(started); <-release; run() }()
		return nil
	}, func() (int, error) { computes++; return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Second resolver must join the in-flight computation, not start one.
	fl2, err := c.Resolve(context.Background(), 7, func(run func()) error {
		t.Error("join scheduled a second compute")
		run()
		return nil
	}, func() (int, error) { computes++; return 43, nil })
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	v1, _ := fl1.Wait()
	v2, _ := fl2.Wait()
	if v1 != 42 || v2 != 42 || computes != 1 {
		t.Errorf("v1=%d v2=%d computes=%d, want shared 42", v1, v2, computes)
	}
	if st := c.Stats(); st.Joins != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache[int, int](128, func(int) int64 { return 64 })
	for k := 0; k < 4; k++ {
		fl, _ := c.Resolve(context.Background(), k, inline, func() (int, error) { return k, nil })
		fl.Wait()
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Entries != 2 || st.Bytes != 128 {
		t.Errorf("stats after overflow = %+v, want 2 evictions, 2 entries", st)
	}
	// Key 0 was evicted: resolving it again must recompute.
	computes := 0
	fl, _ := c.Resolve(context.Background(), 0, inline, func() (int, error) { computes++; return 0, nil })
	fl.Wait()
	if computes != 1 {
		t.Error("evicted key served from cache")
	}
	// Key 3 is still resident.
	fl, _ = c.Resolve(context.Background(), 3, inline, func() (int, error) { t.Error("resident key recomputed"); return 0, nil })
	if _, err := fl.Wait(); err != nil || !fl.Hit {
		t.Error("resident key missed")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	fl, _ := c.Resolve(context.Background(), 1, inline, func() (int, error) { return 0, fmt.Errorf("boom") })
	if _, err := fl.Wait(); err == nil {
		t.Fatal("error lost")
	}
	fl, _ = c.Resolve(context.Background(), 1, inline, func() (int, error) { return 5, nil })
	if v, err := fl.Wait(); err != nil || v != 5 {
		t.Errorf("retry after error: v=%d err=%v", v, err)
	}
}

func TestCacheScheduleRejectionRollsBack(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	_, err := c.Resolve(context.Background(), 1, func(func()) error { return ErrOverloaded }, func() (int, error) { return 1, nil })
	if err != ErrOverloaded {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	// The rolled-back key must be resolvable afresh.
	fl, err := c.Resolve(context.Background(), 1, inline, func() (int, error) { return 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := fl.Wait(); v != 2 {
		t.Errorf("v = %d", v)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("rolled-back miss still counted: %+v", st)
	}
}

// TestCacheScheduleRejectionResolvesJoiners: a joiner that attached to an
// in-flight entry whose scheduling is then rejected must get the error,
// not block forever on a flight nobody will run.
func TestCacheScheduleRejectionResolvesJoiners(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	joined := make(chan *Flight[int], 1)
	_, err := c.Resolve(context.Background(), 1, func(func()) error {
		// While the owner is between registering the flight and having its
		// schedule rejected, a second resolver joins.
		fl, err := c.Resolve(context.Background(), 1, func(func()) error {
			t.Error("joiner scheduled its own compute")
			return nil
		}, func() (int, error) { return 99, nil })
		if err != nil {
			t.Errorf("joiner Resolve: %v", err)
		}
		joined <- fl
		return ErrOverloaded
	}, func() (int, error) { return 1, nil })
	if err != ErrOverloaded {
		t.Fatalf("owner err = %v, want ErrOverloaded", err)
	}
	fl := <-joined
	if _, err := fl.Wait(); err != ErrOverloaded {
		t.Errorf("joiner Wait err = %v, want ErrOverloaded", err)
	}
}

// --- HTTP service ---

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHealthzAndFigureList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/v1/figures")
	if resp.StatusCode != 200 {
		t.Fatalf("figure list = %d", resp.StatusCode)
	}
	var list []figureInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(figures.Registry()) {
		t.Errorf("listed %d figures, want %d", len(list), len(figures.Registry()))
	}
}

// TestFigureByteIdenticalColdAndWarm is the service's core guarantee: the
// figure body equals the offline renderer's bytes on a cold cache (miss)
// and stays byte-identical on a warm one (hit). The offline render runs
// on all CPUs and as the serial reference (Workers: 1, the bytes of
// `paperfigs -quick -workers 1 -fig fig8`), and both must match.
func TestFigureByteIdenticalColdAndWarm(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var want, serial bytes.Buffer
	for _, r := range []struct {
		workers int
		out     *bytes.Buffer
	}{{0, &want}, {1, &serial}} {
		h := exp.New(exp.Options{Workers: r.workers, Effort: exp.Effort{Mode: exp.EffortQuick}})
		if err := figures.Render(h, r.out, "fig8"); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(serial.Bytes(), want.Bytes()) {
		t.Errorf("serial render differs from the parallel one:\n serial: %q\nparallel: %q", serial.Bytes(), want.Bytes())
	}

	resp, cold := get(t, ts, "/v1/figures/fig8?quick=1")
	if resp.StatusCode != 200 {
		t.Fatalf("cold status = %d: %s", resp.StatusCode, cold)
	}
	if resp.Header.Get("X-Neuserve-Cache") != "miss" {
		t.Errorf("cold cache header = %q, want miss", resp.Header.Get("X-Neuserve-Cache"))
	}
	if !bytes.Equal(cold, want.Bytes()) {
		t.Errorf("cold body differs from offline render:\n got: %q\nwant: %q", cold, want.Bytes())
	}

	resp, warm := get(t, ts, "/v1/figures/fig8?quick=1")
	if resp.Header.Get("X-Neuserve-Cache") != "hit" {
		t.Errorf("warm cache header = %q, want hit", resp.Header.Get("X-Neuserve-Cache"))
	}
	if !bytes.Equal(warm, cold) {
		t.Error("warm body differs from cold body")
	}
	if built := s.Metrics().FiguresBuilt; built != 1 {
		t.Errorf("figures built = %d, want 1 (warm path must not re-render)", built)
	}
}

func TestFigureUnknown404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := get(t, ts, "/v1/figures/fig99")
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "fig8") {
		t.Errorf("404 body does not list valid figures: %q", body)
	}
}

const quickSweep = `{"quick":true,"models":["CNN-1","RNN-1"],"batches":[4],"mmus":["neummu","iommu"]}`

// TestSweepDeterministicColdAndWarm: a sweep body must be byte-identical
// across a cold (all misses) and warm (all hits) cache, each unique cell
// must simulate exactly once, and the stream must end with the summary.
func TestSweepDeterministicColdAndWarm(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	resp, cold := post(t, ts, "/v1/sweep", quickSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("cold status = %d: %s", resp.StatusCode, cold)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(string(cold), "\n"), "\n")
	if len(lines) != 5 { // 4 cells + summary
		t.Fatalf("got %d NDJSON lines, want 5: %q", len(lines), cold)
	}
	var row CellRow
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Model != "CNN-1" || row.Cycles <= 0 {
		t.Errorf("first row = %+v", row)
	}
	var sum SweepSummary
	if err := json.Unmarshal([]byte(lines[4]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Summary || sum.Cells != 4 || sum.AvgNormalizedPerf <= 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sim := s.Metrics().CellsSimulated; sim != 4 {
		t.Errorf("cold sweep simulated %d cells, want 4", sim)
	}

	resp, warm := post(t, ts, "/v1/sweep", quickSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("warm status = %d", resp.StatusCode)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm body differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	if got := resp.Header.Get("X-Neuserve-Cache"); got != "hits=4 misses=0" {
		t.Errorf("warm cache header = %q", got)
	}
	if sim := s.Metrics().CellsSimulated; sim != 4 {
		t.Errorf("warm sweep re-simulated: %d cells total, want 4", sim)
	}
}

// TestSweepMatchesSerialReference: the served rows must agree with the
// offline sweep engine's results for the identical design points — the
// service is a transport, never a different simulator.
func TestSweepMatchesSerialReference(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	_, body := post(t, ts, "/v1/sweep", quickSweep)
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, Workers: 1})
	rows, err := h.Sweep(exp.Axes{
		Kinds:  []core.Kind{core.NeuMMU, core.IOMMU},
		Models: []string{"CNN-1", "RNN-1"}, Batches: []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("%d lines vs %d reference rows", len(lines), len(rows))
	}
	for i, ref := range rows {
		var row CellRow
		if err := json.Unmarshal([]byte(lines[i]), &row); err != nil {
			t.Fatal(err)
		}
		if row.Model != ref.Point.Model || row.Batch != ref.Point.Batch ||
			row.MMU != ref.Point.Kind.String() ||
			row.Cycles != int64(ref.Result.Cycles) || row.NormalizedPerf != ref.Perf {
			t.Errorf("row %d = %+v, reference %s perf=%v cycles=%d",
				i, row, ref.Point.Label(), ref.Perf, ref.Result.Cycles)
		}
	}
}

// TestConcurrentOverlappingSweeps is the load test of the acceptance
// criteria: 32 in-flight requests with overlapping cells stay race-clean
// (run under -race in CI), every unique cell simulates exactly once, and
// equal requests get byte-identical bodies.
func TestConcurrentOverlappingSweeps(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 1024})
	reqs := []string{
		quickSweep,
		`{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["neummu","iommu"]}`,
		`{"quick":true,"models":["RNN-1"],"batches":[4],"mmus":["iommu"]}`,
		`{"quick":true,"models":["CNN-1","RNN-1"],"batches":[4],"mmus":["neummu"]}`,
	}
	// Unique cells across all requests: {CNN-1,RNN-1} x b4 x {neummu,iommu}.
	const uniqueCells = 4
	const inflight = 32
	bodies := make([][]byte, inflight)
	status := make([]int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json",
				strings.NewReader(reqs[i%len(reqs)]))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
			status[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	for i := range status {
		if status[i] != 200 {
			t.Fatalf("request %d: status %d: %s", i, status[i], bodies[i])
		}
	}
	for i := range bodies {
		if j := i % len(reqs); !bytes.Equal(bodies[i], bodies[j]) {
			t.Errorf("request %d body differs from request %d (same payload)", i, j)
		}
	}
	m := s.Metrics()
	if m.CellsSimulated != uniqueCells {
		t.Errorf("simulated %d cells, want exactly %d (dedup across overlapping requests)",
			m.CellsSimulated, uniqueCells)
	}
	if st := m.CellCache; st.Hits+st.Joins+st.Misses == 0 || st.Misses != uniqueCells {
		t.Errorf("cell cache stats = %+v, want %d misses", st, uniqueCells)
	}
}

// TestOverloadReturns429: with the scheduler saturated, a sweep must be
// rejected with 429 at admission — never queued without bound.
func TestOverloadReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	defer close(block)
	for {
		if err := s.sched.Submit(func() { <-block }); err != nil {
			break // worker parked + queue full
		}
	}
	resp, body := post(t, ts, "/v1/sweep", quickSweep)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.Metrics().Overloads == 0 {
		t.Error("overload not counted")
	}
}

// TestLargeSweepAdmittedOnIdleServer: a sweep within MaxCellsPerRequest
// must be admitted by an idle server at the default queue bound. A bound
// below the request cap would answer 429 + Retry-After to a sweep that no
// retry can ever get through.
func TestLargeSweepAdmittedOnIdleServer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const body = `{"models":["CNN-1","CNN-2","CNN-3","RNN-1","RNN-2","RNN-3"],` +
		`"batches":[1,2,4,8],"mmus":["custom"],` +
		`"ptws":[8,16,32,64,128,256,512,1024],"prmb_slots":[1,4,8,16,32],` +
		`"effort":{"repeat_cap":1,"tile_cap":1}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Admission is decided before the first row streams; hanging up then
	// drops the still-queued cells instead of simulating all 960.
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Neuserve-Cells"); got != "960" {
		t.Errorf("cells = %s, want 960", got)
	}
}

func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxCellsPerRequest: 2})
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, 400},
		{`{"mmus":["tpu"]}`, 400},
		{`{"page_sizes":["1GB"]}`, 400},
		{`{"models":["VGG-99"]}`, 400},
		{`{"batches":[0]}`, 400},
		{`{"mmus":["custom"],"ptws":[0]}`, 400},
		{`{"mmus":["custom"],"ptws":[-8]}`, 400},
		{`{"mmus":["custom"],"prmb_slots":[-1]}`, 400},
		{`{"unknown_field":1}`, 400},
		{`{"quick":true,"models":["CNN-1","RNN-1"],"batches":[1,4]}`, 400}, // 4 cells > cap 2
	}
	for _, c := range cases {
		resp, _ := post(t, ts, "/v1/sweep", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

func TestSimEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`
	resp, cold := post(t, ts, "/v1/sim", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, cold)
	}
	var row CellRow
	if err := json.Unmarshal(cold, &row); err != nil {
		t.Fatal(err)
	}
	if row.Model != "CNN-1" || row.MMU != "iommu" || row.Cycles <= 0 || row.NormalizedPerf <= 0 {
		t.Errorf("row = %+v", row)
	}
	resp, warm := post(t, ts, "/v1/sim", req)
	if !bytes.Equal(cold, warm) {
		t.Error("sim response not deterministic across cache states")
	}
	if resp.Header.Get("X-Neuserve-Cache") != "hit" {
		t.Errorf("warm sim cache header = %q", resp.Header.Get("X-Neuserve-Cache"))
	}
	// A grid-shaped payload must be rejected.
	resp, _ = post(t, ts, "/v1/sim", quickSweep)
	if resp.StatusCode != 400 {
		t.Errorf("grid sim status = %d, want 400", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	post(t, ts, "/v1/sweep", quickSweep)
	get(t, ts, "/v1/figures/table1")
	get(t, ts, "/v1/figures/table1")
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.CellsServed != 4 || m.CellsSimulated != 4 || m.Workers != 2 {
		t.Errorf("metrics = %+v", m)
	}
	if m.SweepLatencyMS.Count != 1 || m.SweepLatencyMS.P50 == nil || *m.SweepLatencyMS.P50 <= 0 {
		t.Errorf("sweep latency = %+v", m.SweepLatencyMS)
	}
	// No figure-free windows here, but the empty-window contract holds for
	// a recorder that never fired: a fresh server omits the percentile
	// fields instead of reporting 0ms.
	_, ts2 := newTestServer(t, Config{Workers: 1})
	_, body2 := get(t, ts2, "/metrics")
	var m2 Metrics
	if err := json.Unmarshal(body2, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.SweepLatencyMS.Count != 0 || m2.SweepLatencyMS.P50 != nil || m2.SweepLatencyMS.Mean != nil {
		t.Errorf("empty-window latency = %+v, want omitted percentile fields", m2.SweepLatencyMS)
	}
	if m.CellCache.Misses != 4 {
		t.Errorf("cell cache = %+v", m.CellCache)
	}
	if m.FiguresServed != 2 || m.FiguresBuilt != 1 {
		t.Errorf("figures served/built = %d/%d, want 2/1", m.FiguresServed, m.FiguresBuilt)
	}
}

// --- cancellation: queued work whose clients vanished is dropped ---

// TestCacheCancelledDroppedAtDequeue: a computation still queued when its
// only requester has disconnected must be dropped at dequeue — the
// compute callback (a simulation, in production) must never run.
func TestCacheCancelledDroppedAtDequeue(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	ctx, cancel := context.WithCancel(context.Background())
	var queued func()
	fl, err := c.Resolve(ctx, 1,
		func(run func()) error { queued = run; return nil }, // park in "queue"
		func() (int, error) { t.Error("cancelled compute reached the harness"); return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	cancel() // client disconnects while the job is queued
	queued() // the worker dequeues it
	if _, err := fl.Wait(); err != context.Canceled {
		t.Errorf("Wait err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Cancels != 1 {
		t.Errorf("cancels = %d, want 1 (%+v)", st.Cancels, st)
	}
	// The skip is not cached: a fresh request computes.
	fl, _ = c.Resolve(context.Background(), 1, inline, func() (int, error) { return 5, nil })
	if v, err := fl.Wait(); err != nil || v != 5 {
		t.Errorf("recompute after drop: v=%d err=%v", v, err)
	}
}

// TestCacheLiveJoinerKeepsCompute: cancellation is per-flight interest,
// not per-request — if a second, live client joined the same cell, the
// owner's disconnect must not starve it.
func TestCacheLiveJoinerKeepsCompute(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	ctx, cancel := context.WithCancel(context.Background())
	var queued func()
	fl1, err := c.Resolve(ctx, 1,
		func(run func()) error { queued = run; return nil },
		func() (int, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := c.Resolve(context.Background(), 1, func(func()) error {
		t.Error("joiner scheduled its own compute")
		return nil
	}, func() (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the owner leaves; the joiner is still waiting
	queued()
	if v, err := fl2.Wait(); err != nil || v != 7 {
		t.Errorf("joiner got v=%d err=%v, want 7", v, err)
	}
	if v, err := fl1.Wait(); err != nil || v != 7 {
		t.Errorf("owner flight resolved v=%d err=%v", v, err)
	}
	if st := c.Stats(); st.Cancels != 0 {
		t.Errorf("cancels = %d, want 0", st.Cancels)
	}
}

// TestSweepCancelledClientNeverSimulates is the end-to-end form: a sweep
// request whose client disconnects while its cells sit in the scheduler
// queue must not simulate anything once the worker gets to them. It
// drives the handler's resolve path directly with a cancelled context —
// exactly what net/http hands handleSweep when the client hangs up.
func TestSweepCancelledClientNeverSimulates(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 64})
	block := make(chan struct{})
	if err := s.sched.Submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	h, points, _, err := s.expand(SweepRequest{
		Quick: true, Models: []string{"CNN-1", "RNN-1"}, Batches: []int{4},
		MMUs: []string{"neummu", "iommu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cells, _, err := s.resolver.Resolve(ctx, "", h, points)
	if err != nil {
		t.Fatal(err)
	}
	cancel()     // the client disconnects while all 4 cells are queued
	close(block) // the worker reaches them
	for _, c := range cells {
		if _, _, err := c.Wait(ctx); err != context.Canceled {
			t.Errorf("flight err = %v, want context.Canceled", err)
		}
	}
	if sim := s.Metrics().CellsSimulated; sim != 0 {
		t.Errorf("cancelled sweep simulated %d cells, want 0", sim)
	}
	if st := s.cells.Stats(); st.Cancels != 4 {
		t.Errorf("cancels = %d, want 4 (%+v)", st.Cancels, st)
	}
}

// --- /v1/cells: the cluster wire protocol ---

func TestCellsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := `{"quick":true,"points":[
		{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4},
		{"kind":"custom","page_size":"4KB","model":"RNN-1","batch":4,"ptws":8,"prmb_slots":32,"pts":true,"path":"TPreg"}]}`
	resp, cold := post(t, ts, "/v1/cells", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, cold)
	}
	lines := strings.Split(strings.TrimSuffix(string(cold), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), cold)
	}
	for i, l := range lines {
		var cl CellLine
		if err := json.Unmarshal([]byte(l), &cl); err != nil {
			t.Fatal(err)
		}
		if cl.I != i || cl.Cycles <= 0 || cl.Perf <= 0 || cl.Err != "" || cl.Hit {
			t.Errorf("line %d = %+v", i, cl)
		}
	}
	// A repeat answers from cache, and the bytes (minus the hit flag) are
	// derived from the identical cached values.
	resp, warm := post(t, ts, "/v1/cells", body)
	if got := resp.Header.Get("X-Neuserve-Cache"); got != "hits=2 misses=0" {
		t.Errorf("warm cache header = %q", got)
	}
	var cl CellLine
	if err := json.Unmarshal([]byte(strings.SplitN(string(warm), "\n", 2)[0]), &cl); err != nil {
		t.Fatal(err)
	}
	if !cl.Hit {
		t.Error("warm line not marked hit")
	}
	if sim := s.Metrics().CellsSimulated; sim != 2 {
		t.Errorf("simulated %d, want 2", sim)
	}
	// The wire values must agree with the public sweep rows for the same
	// cell — the protocols share one cache and one simulator.
	_, sweepBody := post(t, ts, "/v1/sweep",
		`{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`)
	var row CellRow
	if err := json.Unmarshal([]byte(strings.SplitN(string(sweepBody), "\n", 2)[0]), &row); err != nil {
		t.Fatal(err)
	}
	var first CellLine
	json.Unmarshal([]byte(lines[0]), &first)
	if row.Cycles != first.Cycles || row.NormalizedPerf != first.Perf {
		t.Errorf("sweep row %+v disagrees with cells line %+v", row, first)
	}
}

// TestCellsCanonicalPoint: a wire point that spells a field its kind
// ignores (a walker shape on a named kind, a TLB size on the oracle) is
// the canonical cell: the same CellHash64, and a cache hit once the
// canonical spelling has been served.
func TestCellsCanonicalPoint(t *testing.T) {
	cases := []struct{ canonical, spelled string }{
		{`{"kind":"oracle","page_size":"4KB","model":"CNN-1","batch":1}`,
			`{"kind":"oracle","page_size":"4KB","model":"CNN-1","batch":1,"tlb_entries":64}`},
		{`{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":1}`,
			`{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":1,"ptws":8,"prmb_slots":4,"pts":true,"path":"TPC"}`},
	}
	e := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}}).Options().Effort
	for _, c := range cases {
		var cw, sw WirePoint
		if err := json.Unmarshal([]byte(c.canonical), &cw); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(c.spelled), &sw); err != nil {
			t.Fatal(err)
		}
		cp, err := cw.Point()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sw.Point()
		if err != nil {
			t.Fatal(err)
		}
		if CellHash64(sp, e) != CellHash64(cp, e) {
			t.Errorf("%s: CellHash64 %016x, canonical %s hashes %016x",
				c.spelled, CellHash64(sp, e), c.canonical, CellHash64(cp, e))
		}

		s, ts := newTestServer(t, Config{Workers: 1})
		post(t, ts, "/v1/cells", `{"quick":true,"points":[`+c.canonical+`]}`)
		resp, body := post(t, ts, "/v1/cells", `{"quick":true,"points":[`+c.spelled+`]}`)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d: %s", c.spelled, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Neuserve-Cache"); got != "hits=1 misses=0" {
			t.Errorf("%s after the canonical point: cache header = %q, want one hit", c.spelled, got)
		}
		if sim := s.Metrics().CellsSimulated; sim != 1 {
			t.Errorf("%s: simulated %d cells, want 1", c.spelled, sim)
		}
	}
}

func TestCellsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxCellsPerRequest: 2})
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, 400},
		{`{"points":[]}`, 400},
		{`{"points":[{"kind":"tpu","page_size":"4KB","model":"CNN-1","batch":4}]}`, 400},
		{`{"points":[{"kind":"iommu","page_size":"1GB","model":"CNN-1","batch":4}]}`, 400},
		{`{"points":[{"kind":"iommu","page_size":"4KB","model":"VGG-99","batch":4}]}`, 400},
		{`{"points":[{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":0}]}`, 400},
		{`{"points":[{"kind":"custom","page_size":"4KB","model":"CNN-1","batch":4}]}`, 400},
		{`{"points":[{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4,"path":"L2"}]}`, 400},
		{`{"points":[{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4,"tlb_entries":-1}]}`, 400},
		{`{"quick":true,"points":[
			{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":1},
			{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":2},
			{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4}]}`, 400},
	}
	for _, c := range cases {
		resp, _ := post(t, ts, "/v1/cells", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

// TestWirePointRoundTrip: every sweep-expressible point must survive the
// wire conversion unchanged — the coordinator depends on it to route and
// re-route cells without altering their meaning.
func TestWirePointRoundTrip(t *testing.T) {
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}})
	points := h.Points(exp.Axes{
		Kinds:      []core.Kind{core.Oracle, core.IOMMU, core.NeuMMU, core.Custom},
		PTWs:       []int{8, 128},
		PRMBSlots:  []int{32},
		TLBEntries: []int{0, 4096},
	})
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		rt, err := ToWire(p).Point()
		if err != nil {
			t.Fatalf("%s: %v", p.Label(), err)
		}
		if rt != p {
			t.Errorf("round trip changed %+v to %+v", p, rt)
		}
		if CellHash64(rt, exp.Effort{RepeatCap: 2, TileCap: 6}) != CellHash64(p, exp.Effort{RepeatCap: 2, TileCap: 6}) {
			t.Errorf("%s: hash changed across round trip", p.Label())
		}
	}
}
