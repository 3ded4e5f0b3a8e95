// Package cluster is the scale-out layer of the sweep engine: a
// coordinator that accepts the same POST /v1/sweep API as a single
// neuserve process, partitions the expanded design-space grid into
// shards, routes each shard to a worker over HTTP, and merges the worker
// streams back into the exact byte sequence the single process would have
// produced.
//
// Routing is consistent hashing on the content-addressed cell key
// (serve.CellHash64): the same cell always lands on the same worker, so
// repeated and overlapping sweeps keep hitting the worker whose LRU
// result cache already holds their cells — the cluster-wide analogue of
// the in-process content-addressed cache. Workers are plain neuserve
// processes; the only wire surface between coordinator and worker is
// POST /v1/cells (see internal/serve).
//
// Determinism guarantee: the merged NDJSON body for a sweep is
// byte-identical to single-process neuserve for the same request — rows
// in grid order, the same summary line, regardless of worker count,
// shard boundaries, cache states, or mid-sweep re-routing. Failure
// handling preserves work: when a worker dies mid-shard, only its
// missing cells are re-routed (bounded by MaxRetries); cells already
// streamed back are kept. With no healthy workers a sweep is refused
// with 503 rather than hanging.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/serve"
	"neummu/internal/stats"
	"neummu/internal/store"
	"neummu/internal/trace"
)

// ErrNoWorkers is returned (as a 503) when no healthy worker remains to
// route a shard to.
var ErrNoWorkers = errors.New("cluster: no healthy workers")

// ErrWorkerOverloaded is returned (as a 429) when a worker answered a
// shard with its admission-control pushback. Unlike a transport failure
// it does NOT mark the worker down or re-route: the worker is alive and
// deliberately shedding load, and piling its shard onto the rest of the
// fleet would cascade one hot spot into a fleet-wide brownout. The 429
// (with Retry-After) bubbles up to the client, preserving the single
// process's backpressure contract through the coordinator.
var ErrWorkerOverloaded = errors.New("cluster: worker overloaded")

// Config tunes a Coordinator.
type Config struct {
	// Workers lists worker base URLs (e.g. http://10.0.0.2:8077).
	Workers []string
	// Replicas is the virtual-node count per worker on the consistent-hash
	// ring (0 = 64). More replicas smooth the cell distribution at the
	// cost of a larger ring.
	Replicas int
	// MaxRetries bounds how many times one cell may be re-routed after
	// worker failures before the sweep reports it failed (0 = 2).
	MaxRetries int
	// ShardTimeout bounds a worker's stream *inactivity* during one shard
	// dispatch, not the shard's total duration: a worker that goes this
	// long without producing its next result line (including never
	// answering at all) is treated as failed and its missing cells are
	// re-routed (0 = 5m). A worker streaming steadily is never cut off,
	// however large its shard — so legitimate full-effort sweeps that
	// succeed on a single process also succeed through the coordinator.
	ShardTimeout time.Duration
	// HealthInterval is the /healthz probe period (0 = 2s). It is also
	// the probe timeout.
	HealthInterval time.Duration
	// MaxCellsPerRequest bounds one sweep request's grid (0 = 4096).
	MaxCellsPerRequest int
	// Store is the coordinator's optional durable cell tier (nil = none):
	// the same store.Store, key bytes and value bytes a worker keeps
	// behind its cache (see serve.LoadCell). Every cell a worker answers
	// is saved there, and every request answers the cells the store
	// already holds without dispatching them — so a restarted
	// coordinator, a retried request however it spells its effort, or an
	// overlapping sweep resumes from earlier work, and a request whose
	// cells are all stored succeeds with zero healthy workers. Writes,
	// GC and corruption handling are the store's policy. The caller owns
	// the store's lifecycle (open it before New, close it after Close). A
	// coordinator and a worker must not share a store directory.
	Store *store.Store
	// Client optionally overrides the HTTP client used for worker traffic
	// and health probes (tests inject httptest clients; nil = a client
	// suited to long streaming responses).
	Client *http.Client
	// Trace tunes the coordinator's request tracer (see trace.Config). The
	// zero value selects the defaults. The coordinator propagates each
	// request's trace ID to workers on every dispatch, so one fleet-wide
	// sweep is one trace across every process that touched it.
	Trace trace.Config
	// Logger receives structured request logs, re-route warnings, and
	// slow-cell records (nil = discard).
	Logger *slog.Logger
}

func (c Config) normalized() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxCellsPerRequest <= 0 {
		c.MaxCellsPerRequest = 4096
	}
	if c.Client == nil {
		c.Client = &http.Client{} // no global timeout: shard ctx bounds each call
	}
	return c
}

// Coordinator fans sweeps out over a worker fleet. Create with New,
// mount as an http.Handler, and Close when done.
//
// Endpoints: GET /healthz, GET /metrics, POST /v1/sweep, POST /v1/sim,
// and POST /v1/cells (so one coordinator can serve another coordinator —
// or the exp remote backend — exactly like a worker would).
type Coordinator struct {
	cfg  Config
	ring *ring
	pool *pool
	mux  *http.ServeMux

	start        time.Time
	requests     atomic.Int64
	sweeps       atomic.Int64
	cellsServed  atomic.Int64
	reroutes     atomic.Int64
	noWorkers    atomic.Int64
	storedCells  atomic.Int64 // cells answered from cfg.Store
	resumes      atomic.Int64 // requests with at least one such cell
	sweepLatency *stats.Latency
	tracer       *trace.Tracer
	logger       *slog.Logger

	// harnesses memoizes one expansion harness per effort through the
	// serving layer's shared cache (Workers: 1 — the coordinator expands
	// grids and normalizes caps but never simulates), so coordinator and
	// worker can never diverge on what selects a harness.
	harnesses *serve.HarnessCache
}

// New returns a coordinator for the given worker fleet. The health
// checker starts immediately; workers are assumed healthy until a probe
// or a dispatch says otherwise.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.normalized()
	// Canonicalize worker URLs so the ring, the pool, and user-supplied
	// spellings (trailing slash or not) agree on one name per worker.
	urls := make([]string, 0, len(cfg.Workers))
	seen := make(map[string]bool)
	for _, u := range cfg.Workers {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		urls = append(urls, u)
	}
	cfg.Workers = urls
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	traceCfg := cfg.Trace
	if traceCfg.Logger == nil {
		traceCfg.Logger = logger
	}
	c := &Coordinator{
		cfg:          cfg,
		ring:         newRing(cfg.Workers, cfg.Replicas),
		pool:         newPool(cfg.Workers, cfg.Client, cfg.HealthInterval),
		start:        time.Now(),
		sweepLatency: stats.NewLatency(0),
		tracer:       trace.NewTracer(traceCfg),
		logger:       logger,
		harnesses:    serve.NewHarnessCache(1),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /debug/traces", c.tracer.HandleList)
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		c.tracer.HandleByID(w, r, r.PathValue("id"))
	})
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/sim", c.handleSim)
	mux.HandleFunc("POST /v1/cells", c.handleCells)
	c.mux = mux
	return c, nil
}

// Tracer exposes the coordinator's span tracer (the /debug/traces state)
// for embedding processes and tests.
func (c *Coordinator) Tracer() *trace.Tracer { return c.tracer }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.requests.Add(1)
	c.mux.ServeHTTP(w, r)
}

// Close stops the health checker. In-flight dispatches are bounded by
// their own contexts and need no draining here.
func (c *Coordinator) Close() { c.pool.close() }

// slot is one cell's pending result. Exactly one dispatch owns a slot at
// any time (re-routing hands unresolved slots to a new dispatch only
// after the failed one has stopped touching them), so done is closed
// exactly once and the fields are published by that close.
type slot struct {
	done chan struct{}
	v    serve.CellValue
	hit  bool
	err  error
	// attempts counts dispatches that have carried this cell; bounded by
	// MaxRetries. Only the owning dispatch chain touches it.
	attempts int
	// firstDispatch anchors retry-stage attribution: a re-routed cell's
	// span books the time from here to its final dispatch's start as
	// StageRetry. Set once in runCells; read by the owning dispatch chain.
	firstDispatch time.Time
}

func (s *slot) fail(err error) {
	s.err = err
	close(s.done)
}

// runCells answers every point the coordinator's store holds at once and
// shards the rest across healthy workers by consistent hash; slots
// resolve as worker lines stream back. A request whose cells are all
// stored succeeds with zero healthy workers. traceID propagates to every
// worker dispatch over the X-Trace-Id header.
func (c *Coordinator) runCells(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point) ([]*slot, error) {
	slots := make([]*slot, len(points))
	remaining := make([]int, 0, len(points))
	now := time.Now()
	for i := range slots {
		sl := &slot{done: make(chan struct{}), attempts: 1, firstDispatch: now}
		slots[i] = sl
		t0 := time.Now()
		v, ok := serve.LoadCell(c.cfg.Store, h, points[i])
		if !ok {
			remaining = append(remaining, i)
			continue
		}
		sl.v, sl.hit = v, true
		close(sl.done)
		var st trace.Stages
		st[trace.StageDisk] = int64(time.Since(t0))
		c.tracer.Record(trace.Span{
			TraceID: traceID, Kind: "cell", Name: points[i].Label(), Index: i,
			Start: t0, TotalNS: st.Sum(), Stages: st, DiskHit: true,
		})
	}
	if stored := len(points) - len(remaining); stored > 0 {
		c.storedCells.Add(int64(stored))
		c.resumes.Add(1)
	}
	if len(remaining) == 0 {
		return slots, nil
	}
	if c.pool.healthyCount() == 0 {
		c.noWorkers.Add(1)
		return nil, ErrNoWorkers
	}
	groups, err := c.plan(h, points, remaining)
	if err != nil {
		c.noWorkers.Add(1)
		return nil, err
	}
	eff := effortOf(h)
	for url, idxs := range groups {
		go c.dispatch(ctx, traceID, h, points, slots, url, idxs, eff)
	}
	return slots, nil
}

// plan groups point indices by ring owner among healthy workers. indices
// nil means all points.
func (c *Coordinator) plan(h *exp.Harness, points []exp.Point, indices []int) (map[string][]int, error) {
	eff := serveEffort(h)
	groups := make(map[string][]int)
	assign := func(i int) error {
		owner := c.ring.owner(serve.CellHash64(points[i], eff), c.pool.unhealthy)
		if owner == "" {
			return ErrNoWorkers
		}
		groups[owner] = append(groups[owner], i)
		return nil
	}
	if indices == nil {
		for i := range points {
			if err := assign(i); err != nil {
				return nil, err
			}
		}
		return groups, nil
	}
	for _, i := range indices {
		if err := assign(i); err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// serveEffort reconstructs the canonical serve-level effort from a
// normalized harness — the value cell routing hashes key on.
func serveEffort(h *exp.Harness) serve.Effort {
	opts := h.Options()
	return serve.Effort{
		Quick: opts.Quick, RepeatCap: opts.RepeatCap, TileCap: opts.TileCap,
		Sampled:          opts.Effort.Sampled(),
		TargetCI:         opts.Effort.TargetCI,
		IntraCellWorkers: opts.Effort.IntraCellWorkers,
	}
}

// effortOf extracts the wire effort knobs from a normalized harness: the
// legacy flat fields always (so legacy-shaped work produces the exact
// pre-redesign worker payload bytes), plus the effort object only when
// the effort is epoch-structured and the flat fields cannot express it.
func effortOf(h *exp.Harness) serve.CellsRequest {
	opts := h.Options()
	return serve.CellsRequest{
		Quick: opts.Quick, RepeatCap: opts.RepeatCap, TileCap: opts.TileCap,
		Effort: serveEffort(h).ToWireEffort(),
	}
}

// dispatch sends one shard (the points at idxs) to a worker and resolves
// each slot as its line streams back. On transport failure — connection
// error, bad status, timeout, or a truncated stream — the cells not yet
// resolved are re-routed to the remaining healthy workers; cells the
// worker already answered keep their results. The trace ID rides the
// X-Trace-Id header, so the worker's own spans land under the same trace.
func (c *Coordinator) dispatch(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point,
	slots []*slot, url string, idxs []int, eff serve.CellsRequest) {
	dispatchStart := time.Now()
	w := c.pool.byURL[url]
	w.shards.Add(1)
	w.cells.Add(int64(len(idxs)))

	req := eff
	req.Points = make([]serve.WirePoint, len(idxs))
	for k, i := range idxs {
		req.Points[k] = serve.ToWire(points[i])
	}
	body, err := json.Marshal(req)
	if err != nil {
		for _, i := range idxs {
			slots[i].fail(err)
		}
		return
	}

	// cellSpan books one resolved cell on the coordinator: the time since
	// the previous line of this stream (or the dispatch start) is this
	// cell's share of the remote work — network plus the worker's own
	// stages — and a re-routed cell additionally books the time its failed
	// earlier dispatches burned as StageRetry.
	lastLine := dispatchStart
	cellSpan := func(i int, sl *slot, cellErr string) {
		now := time.Now()
		var st trace.Stages
		st[trace.StageCompute] = int64(now.Sub(lastLine))
		lastLine = now
		if sl.attempts > 1 {
			st[trace.StageRetry] = int64(dispatchStart.Sub(sl.firstDispatch))
		}
		c.tracer.Record(trace.Span{
			TraceID: traceID, Kind: "cell", Name: points[i].Label(), Index: i,
			Start: sl.firstDispatch, TotalNS: st.Sum(), Stages: st,
			Hit: sl.hit, Worker: url, Attempts: sl.attempts, Err: cellErr,
		})
	}

	resolved := make([]bool, len(idxs))
	// ShardTimeout is an inactivity bound, not a total-duration bound: the
	// timer cancels the shard only when the worker goes a full period
	// without producing its next line, and every decoded line re-arms it.
	// A worker streaming a large full-effort shard steadily is never cut
	// off; a hung or dead one is.
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	idle := time.AfterFunc(c.cfg.ShardTimeout, cancel)
	defer idle.Stop()
	failure := func(cause error) {
		var missing []int
		for k, i := range idxs {
			if !resolved[k] {
				missing = append(missing, i)
			}
		}
		c.reroute(ctx, traceID, h, points, slots, w, missing, cause, eff)
	}

	httpReq, err := http.NewRequestWithContext(shardCtx, "POST", url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		failure(err)
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(trace.Header, traceID)
	resp, err := c.pool.client.Do(httpReq)
	if err != nil {
		failure(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		// Admission-control pushback, not death: fail the shard's cells
		// with the overload error (mapped to 429 upstream) and leave the
		// worker healthy and un-rerouted. See ErrWorkerOverloaded.
		for _, i := range idxs {
			slots[i].fail(fmt.Errorf("%s: %w", points[i].Label(), ErrWorkerOverloaded))
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		failure(fmt.Errorf("worker answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
		return
	}

	dec := json.NewDecoder(resp.Body)
	n := 0
	for n < len(idxs) {
		var line serve.CellLine
		if err := dec.Decode(&line); err != nil {
			failure(fmt.Errorf("worker stream truncated after %d/%d cells: %w", n, len(idxs), err))
			return
		}
		idle.Reset(c.cfg.ShardTimeout)
		if line.I < 0 || line.I >= len(idxs) || resolved[line.I] {
			failure(fmt.Errorf("worker answered bogus cell index %d", line.I))
			return
		}
		resolved[line.I] = true
		if n++; n == len(idxs) {
			// Read the stream's end before the last slot resolves: the
			// sweep may answer its client, cancelling ctx, as soon as it
			// does, and a cancelled read drops the connection.
			drainBody(resp.Body)
		}
		sl := slots[idxs[line.I]]
		// Each cell's span is recorded before its slot resolves, so a
		// sweep's response never completes ahead of its own cell spans.
		if line.Err != "" {
			w.cellErrs.Add(1)
			cellSpan(idxs[line.I], sl, line.Err)
			sl.fail(errors.New(line.Err))
			continue
		}
		w.completed.Add(1)
		sl.v = serve.CellValue{
			Cycles: line.Cycles, Translations: line.Translations, Perf: line.Perf,
			Counters: line.Counters, Sampled: line.Sampled,
		}
		sl.hit = line.Hit
		cellSpan(idxs[line.I], sl, "")
		// Save before resolving the slot: once the last slot resolves, the
		// request may answer its client and the process may close the
		// store, and a later save would be dropped.
		serve.SaveCell(c.cfg.Store, h, points[idxs[line.I]], sl.v)
		close(sl.done)
	}
}

// drainBody reads what is left of a fully decoded stream — its trailing
// newline and the chunked terminator — so the transport can return the
// connection to its idle pool instead of closing it. The read is bounded
// and its error ignored: a body that does not end soon is only a
// connection that will not be reused.
func drainBody(body io.Reader) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
}

// reroute handles a failed dispatch: mark the worker down, re-plan the
// missing cells on the remaining healthy fleet, and fail any cell whose
// retry budget is spent. A cancelled client context fails the cells
// without blaming the worker — a hung-up client is not a fleet problem.
// Every re-planned cell is booked twice in /metrics: as cells_rerouted on
// the failed worker it left and as cells_adopted on the worker that took
// it over, so a fleet dashboard can attribute re-route load to both sides
// of the move.
func (c *Coordinator) reroute(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point,
	slots []*slot, w *workerState, missing []int, cause error, eff serve.CellsRequest) {
	if len(missing) == 0 {
		return
	}
	if ctx.Err() != nil {
		for _, i := range missing {
			slots[i].fail(ctx.Err())
		}
		return
	}
	w.markDown()
	w.rerouted.Add(int64(len(missing)))
	c.reroutes.Add(int64(len(missing)))
	c.logger.Warn("worker failed, re-routing",
		"trace_id", traceID, "worker", w.url,
		"missing_cells", len(missing), "cause", cause.Error())

	var retry []int
	for _, i := range missing {
		if slots[i].attempts > c.cfg.MaxRetries {
			err := fmt.Errorf("%s: worker %s failed (%v) and retry budget is spent",
				points[i].Label(), w.url, cause)
			c.tracer.Record(trace.Span{
				TraceID: traceID, Kind: "cell", Name: points[i].Label(), Index: i,
				Start: slots[i].firstDispatch, Worker: w.url,
				Attempts: slots[i].attempts, Err: err.Error(),
			})
			slots[i].fail(err)
			continue
		}
		slots[i].attempts++
		retry = append(retry, i)
	}
	if len(retry) == 0 {
		return
	}
	groups, err := c.plan(h, points, retry)
	if err != nil {
		for _, i := range retry {
			slots[i].fail(fmt.Errorf("%s: %w after worker %s failed (%v)",
				points[i].Label(), ErrNoWorkers, w.url, cause))
		}
		return
	}
	for url, idxs := range groups {
		c.pool.byURL[url].adopted.Add(int64(len(idxs)))
		go c.dispatch(ctx, traceID, h, points, slots, url, idxs, eff)
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// reject maps routing errors to clean statuses in the uniform error
// envelope: no healthy workers is a 503 unavailable (the fleet is down,
// retrying later may help), worker overload is a 429 overloaded (the
// single process's backpressure contract, passed through), anything else
// a 500 internal.
func (c *Coordinator) reject(w http.ResponseWriter, traceID string, err error) {
	switch {
	case errors.Is(err, ErrNoWorkers):
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable, serve.ErrCodeUnavailable,
			err.Error(), traceID)
	case errors.Is(err, ErrWorkerOverloaded):
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusTooManyRequests, serve.ErrCodeOverloaded,
			err.Error(), traceID)
	default:
		serve.WriteError(w, http.StatusInternalServerError, serve.ErrCodeInternal,
			err.Error(), traceID)
	}
}

// handleSweep is the scale-out twin of the single-process sweep handler:
// same request schema, same validation, same expansion, and — by merging
// worker streams back into grid order through the shared row renderer —
// the same bytes.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	startT := time.Now()
	traceID := trace.FromRequest(r)
	var req serve.SweepRequest
	if !serve.DecodeSweepRequest(w, r, &req, traceID) {
		return
	}
	eff, err := serve.MergeEffort(req.Effort, req.Quick, req.RepeatCap, req.TileCap)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	h := c.harnesses.Get(eff)
	points, err := serve.ExpandSweep(h, req, c.cfg.MaxCellsPerRequest)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	slots, err := c.runCells(r.Context(), traceID, h, points)
	if err != nil {
		c.reject(w, traceID, err)
		c.finishRequest(traceID, r, startT, len(points), 0, err)
		return
	}
	w.Header().Set(trace.Header, traceID)
	serve.MarkDeprecated(w.Header(), req.Quick || req.RepeatCap != 0 || req.TileCap != 0, req.Effort)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Neuserve-Cells", strconv.Itoa(len(points)))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sum := 0.0
	var agg counters.Bundle
	var mergeNS int64
	for i, sl := range slots {
		select {
		case <-sl.done:
		case <-r.Context().Done():
			c.finishRequest(traceID, r, startT, len(points), mergeNS, r.Context().Err())
			return
		}
		if sl.err != nil {
			if i == 0 {
				// Nothing streamed yet: answer with a clean status (429
				// for overload, 503 for a dead fleet) like the single
				// process would at admission.
				c.reject(w, traceID, sl.err)
				c.finishRequest(traceID, r, startT, len(points), mergeNS, sl.err)
				return
			}
			// The stream is already committed; emit a terminal error line
			// (the same shape the single process emits).
			enc.Encode(map[string]string{"error": sl.err.Error()})
			c.finishRequest(traceID, r, startT, len(points), mergeNS, sl.err)
			return
		}
		sum += sl.v.Perf
		agg = agg.Add(sl.v.Counters)
		te := time.Now()
		enc.Encode(serve.PointRow(points[i], sl.v))
		if flusher != nil {
			flusher.Flush()
		}
		mergeNS += int64(time.Since(te))
	}
	te := time.Now()
	enc.Encode(serve.SweepSummary{
		Summary: true, Cells: len(points),
		AvgNormalizedPerf: sum / float64(len(points)),
		Counters:          agg,
	})
	mergeNS += int64(time.Since(te))
	c.sweeps.Add(1)
	c.cellsServed.Add(int64(len(points)))
	c.sweepLatency.Record(float64(time.Since(startT)) / float64(time.Millisecond))
	c.finishRequest(traceID, r, startT, len(points), mergeNS, nil)
}

// finishRequest records the coordinator's request-level span and emits
// the structured request log line.
func (c *Coordinator) finishRequest(traceID string, r *http.Request, start time.Time, cells int, mergeNS int64, reqErr error) {
	total := int64(time.Since(start))
	var st trace.Stages
	st[trace.StageMerge] = mergeNS
	sp := trace.Span{
		TraceID: traceID, Kind: "request",
		Name: r.Method + " " + r.URL.Path, Index: -1,
		Start: start, TotalNS: total, Stages: st, Cells: cells,
	}
	attrs := []any{
		"trace_id", traceID, "method", r.Method, "path", r.URL.Path,
		"cells", cells, "ms", float64(total) / float64(time.Millisecond),
	}
	if reqErr != nil {
		sp.Err = reqErr.Error()
		attrs = append(attrs, "error", reqErr.Error())
		c.tracer.Record(sp)
		c.logger.Error("request failed", attrs...)
		return
	}
	c.tracer.Record(sp)
	c.logger.Info("request", attrs...)
}

// handleSim routes a single cell to its owning worker and returns one
// JSON object, byte-identical to the single process's /v1/sim.
func (c *Coordinator) handleSim(w http.ResponseWriter, r *http.Request) {
	startT := time.Now()
	traceID := trace.FromRequest(r)
	var req serve.SweepRequest
	if !serve.DecodeSweepRequest(w, r, &req, traceID) {
		return
	}
	eff, err := serve.MergeEffort(req.Effort, req.Quick, req.RepeatCap, req.TileCap)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	h := c.harnesses.Get(eff)
	points, err := serve.ExpandSweep(h, req, c.cfg.MaxCellsPerRequest)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	if len(points) != 1 {
		serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest,
			fmt.Sprintf("sim requires exactly one cell, got %d (use /v1/sweep for grids)",
				len(points)), traceID)
		return
	}
	slots, err := c.runCells(r.Context(), traceID, h, points)
	if err != nil {
		c.reject(w, traceID, err)
		c.finishRequest(traceID, r, startT, 1, 0, err)
		return
	}
	sl := slots[0]
	select {
	case <-sl.done:
	case <-r.Context().Done():
		c.finishRequest(traceID, r, startT, 1, 0, r.Context().Err())
		return
	}
	if sl.err != nil {
		c.reject(w, traceID, sl.err)
		c.finishRequest(traceID, r, startT, 1, 0, sl.err)
		return
	}
	w.Header().Set(trace.Header, traceID)
	serve.MarkDeprecated(w.Header(), req.Quick || req.RepeatCap != 0 || req.TileCap != 0, req.Effort)
	if sl.hit {
		w.Header().Set("X-Neuserve-Cache", "hit")
	} else {
		w.Header().Set("X-Neuserve-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	te := time.Now()
	enc.Encode(serve.PointRow(points[0], sl.v))
	c.cellsServed.Add(1)
	c.sweepLatency.Record(float64(time.Since(startT)) / float64(time.Millisecond))
	c.finishRequest(traceID, r, startT, 1, int64(time.Since(te)), nil)
}

// handleCells lets a coordinator speak the worker wire protocol itself:
// explicit points in, CellLines out in input order — so the exp remote
// backend (and chained coordinators) need only one protocol.
func (c *Coordinator) handleCells(w http.ResponseWriter, r *http.Request) {
	startT := time.Now()
	traceID := trace.FromRequest(r)
	req, points, err := serve.ParseCellsRequest(r, c.cfg.MaxCellsPerRequest)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	eff, err := serve.MergeEffort(req.Effort, req.Quick, req.RepeatCap, req.TileCap)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	h := c.harnesses.Get(eff)
	slots, err := c.runCells(r.Context(), traceID, h, points)
	if err != nil {
		c.reject(w, traceID, err)
		c.finishRequest(traceID, r, startT, len(points), 0, err)
		return
	}
	w.Header().Set(trace.Header, traceID)
	serve.MarkDeprecated(w.Header(), req.Quick || req.RepeatCap != 0 || req.TileCap != 0, req.Effort)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Neuserve-Cells", strconv.Itoa(len(points)))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mergeNS int64
	for i, sl := range slots {
		select {
		case <-sl.done:
		case <-r.Context().Done():
			c.finishRequest(traceID, r, startT, len(points), mergeNS, r.Context().Err())
			return
		}
		if sl.err != nil && i == 0 && errors.Is(sl.err, ErrWorkerOverloaded) {
			// Mirror the worker protocol: overload before any line is a
			// 429 the caller can retry, not a stream of error lines.
			c.reject(w, traceID, sl.err)
			c.finishRequest(traceID, r, startT, len(points), mergeNS, sl.err)
			return
		}
		line := serve.CellLine{I: i, Hit: sl.hit}
		if sl.err != nil {
			line.Err = sl.err.Error()
		} else {
			line.Cycles, line.Translations, line.Perf = sl.v.Cycles, sl.v.Translations, sl.v.Perf
			line.Counters = sl.v.Counters
			line.Sampled = sl.v.Sampled
		}
		te := time.Now()
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
		mergeNS += int64(time.Since(te))
	}
	c.cellsServed.Add(int64(len(points)))
	c.sweepLatency.Record(float64(time.Since(startT)) / float64(time.Millisecond))
	c.finishRequest(traceID, r, startT, len(points), mergeNS, nil)
}

// Metrics is the coordinator's /metrics response: fleet health, routing
// counters, and per-worker detail.
type Metrics struct {
	UptimeSec      float64 `json:"uptime_sec"`
	Requests       int64   `json:"requests"`
	Sweeps         int64   `json:"sweeps"`
	CellsServed    int64   `json:"cells_served"`
	CellsRerouted  int64   `json:"cells_rerouted"`
	NoWorkerErrors int64   `json:"no_worker_errors"`
	// JournalEnabled reports a coordinator store is configured;
	// CellsFromJournal counts cells answered from that store without any
	// dispatch; SweepsResumed counts requests with at least one such cell.
	// (The names predate the store; the wire names are kept.)
	JournalEnabled   bool  `json:"journal_enabled"`
	CellsFromJournal int64 `json:"cells_from_journal"`
	SweepsResumed    int64 `json:"sweeps_resumed"`

	WorkersTotal   int             `json:"workers_total"`
	WorkersHealthy int             `json:"workers_healthy"`
	Workers        []WorkerMetrics `json:"workers"`

	SweepLatencyMS serve.LatencyJSON `json:"sweep_latency_ms"`
}

// Metrics snapshots the coordinator's operational state.
func (c *Coordinator) Metrics() Metrics {
	return Metrics{
		UptimeSec:        time.Since(c.start).Seconds(),
		Requests:         c.requests.Load(),
		Sweeps:           c.sweeps.Load(),
		CellsServed:      c.cellsServed.Load(),
		CellsRerouted:    c.reroutes.Load(),
		NoWorkerErrors:   c.noWorkers.Load(),
		JournalEnabled:   c.cfg.Store != nil,
		CellsFromJournal: c.storedCells.Load(),
		SweepsResumed:    c.resumes.Load(),
		WorkersTotal:     len(c.pool.workers),
		WorkersHealthy:   c.pool.healthyCount(),
		Workers:          c.pool.metrics(),
		SweepLatencyMS:   serve.ToLatencyJSON(c.sweepLatency.Summary()),
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		c.handleMetricsProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Metrics())
}
