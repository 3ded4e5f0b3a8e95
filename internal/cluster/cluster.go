// Package cluster is the scale-out layer of the sweep engine: a
// coordinator that serves the same API as a single neuserve process,
// partitions each expanded design-space grid into shards, routes each
// shard to a worker over HTTP, and merges the worker streams back into
// the exact byte sequence the single process would have produced.
//
// The coordinator has no HTTP layer of its own. It is a serve.Server
// front end whose serve.Resolver is the fleet: cells the coordinator's
// store holds are answered at once, and the rest are dispatched across
// the ring, re-routed when a worker fails. Decoding, validation, rows,
// headers, error envelopes, spans and request logs are serve's, so both
// roles produce them the same way.
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
	"strings"
	"sync/atomic"
	"time"

	"neummu/internal/exp"
	"neummu/internal/serve"
	"neummu/internal/store"
	"neummu/internal/trace"
)

// ErrNoWorkers is returned (as a 503) when no healthy worker remains to
// route a shard to. It wraps serve.ErrUnavailable.
var ErrNoWorkers = fmt.Errorf("cluster: no healthy workers (%w)", serve.ErrUnavailable)

// ErrWorkerOverloaded is returned (as a 429) when a worker answered a
// shard with its admission-control pushback. It wraps serve.ErrOverloaded.
// Unlike a transport failure it does NOT mark the worker down or
// re-route: the worker is alive and deliberately shedding load, and
// piling its shard onto the rest of the fleet would cascade one hot spot
// into a fleet-wide brownout. The 429 (with Retry-After) bubbles up to
// the client, preserving the single process's backpressure contract
// through the coordinator.
var ErrWorkerOverloaded = fmt.Errorf("cluster: worker overloaded (%w)", serve.ErrOverloaded)

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
	if c.Client == nil {
		c.Client = &http.Client{} // no global timeout: shard ctx bounds each call
	}
	return c
}

// Coordinator fans sweeps out over a worker fleet. Create with New,
// mount as an http.Handler, and Close when done.
//
// It serves serve.Server's endpoints except the figure registry:
// GET /healthz, GET /metrics, GET /debug/traces, POST /v1/sweep,
// POST /v1/sim, and POST /v1/cells (so one coordinator can serve another
// coordinator — or the exp remote backend — exactly like a worker
// would).
type Coordinator struct {
	srv   *serve.Server
	fleet *fleet
}

// fleet is the coordinator's serve.Resolver: its store, the ring, the
// worker pool, and the routing counters folded into /metrics.
type fleet struct {
	cfg    Config
	ring   *ring
	pool   *pool
	tracer *trace.Tracer

	reroutes    atomic.Int64
	noWorkers   atomic.Int64
	storedCells atomic.Int64 // cells answered from cfg.Store
	resumes     atomic.Int64 // requests with at least one such cell
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
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	f := &fleet{
		cfg:  cfg,
		ring: newRing(cfg.Workers, cfg.Replicas),
		pool: newPool(cfg.Workers, cfg.Client, cfg.HealthInterval),
	}
	// One sweep worker per harness: the coordinator's harnesses expand
	// grids and normalize caps, but never simulate.
	srv := serve.NewWithResolver(serve.Config{
		Workers:            1,
		MaxCellsPerRequest: cfg.MaxCellsPerRequest,
		Trace:              cfg.Trace,
		Logger:             cfg.Logger,
	}, f)
	f.tracer = srv.Tracer()
	return &Coordinator{srv: srv, fleet: f}, nil
}

// Tracer exposes the coordinator's span tracer (the /debug/traces state)
// for embedding processes and tests.
func (c *Coordinator) Tracer() *trace.Tracer { return c.srv.Tracer() }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.srv.ServeHTTP(w, r)
}

// Close stops the health checker. In-flight dispatches are bounded by
// their own contexts and need no draining here.
func (c *Coordinator) Close() { c.fleet.pool.close() }

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
	// StageRetry. Set once in Resolve; read by the owning dispatch chain.
	firstDispatch time.Time
}

func (s *slot) fail(err error) {
	s.err = err
	close(s.done)
}

// Wait implements serve.Pending. The slot's span is recorded where it
// resolves (at admission for a stored cell, in dispatch otherwise), so
// Wait only waits — and stops waiting when the client goes away.
func (s *slot) Wait(ctx context.Context) (serve.CellValue, bool, error) {
	select {
	case <-s.done:
		return s.v, s.hit, s.err
	case <-ctx.Done():
		return serve.CellValue{}, false, ctx.Err()
	}
}

// Resolve answers every point the coordinator's store holds at once and
// shards the rest across healthy workers by consistent hash; slots
// resolve as worker lines stream back. hits counts the stored cells. A
// request whose cells are all stored succeeds with zero healthy workers.
// traceID propagates to every worker dispatch over the X-Trace-Id header.
func (f *fleet) Resolve(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point) ([]serve.Pending, int, error) {
	slots := make([]*slot, len(points))
	cells := make([]serve.Pending, len(points))
	remaining := make([]int, 0, len(points))
	now := time.Now()
	for i := range slots {
		sl := &slot{done: make(chan struct{}), attempts: 1, firstDispatch: now}
		slots[i], cells[i] = sl, sl
		t0 := time.Now()
		v, ok := serve.LoadCell(f.cfg.Store, h, points[i])
		if !ok {
			remaining = append(remaining, i)
			continue
		}
		sl.v, sl.hit = v, true
		close(sl.done)
		var st trace.Stages
		st[trace.StageDisk] = int64(time.Since(t0))
		f.tracer.Record(trace.Span{
			TraceID: traceID, Kind: "cell", Name: points[i].Label(), Index: i,
			Start: t0, TotalNS: st.Sum(), Stages: st, DiskHit: true,
		})
	}
	stored := len(points) - len(remaining)
	if stored > 0 {
		f.storedCells.Add(int64(stored))
		f.resumes.Add(1)
	}
	if len(remaining) == 0 {
		return cells, stored, nil
	}
	groups, err := f.plan(h, points, remaining)
	if err != nil {
		f.noWorkers.Add(1)
		return nil, 0, err
	}
	for url, idxs := range groups {
		go f.dispatch(ctx, traceID, h, points, slots, url, idxs)
	}
	return cells, stored, nil
}

// plan groups the point indices by ring owner among healthy workers,
// failing with ErrNoWorkers when none is left.
func (f *fleet) plan(h *exp.Harness, points []exp.Point, indices []int) (map[string][]int, error) {
	eff := h.Options().Effort
	groups := make(map[string][]int)
	for _, i := range indices {
		owner := f.ring.owner(serve.CellHash64(points[i], eff), f.pool.unhealthy)
		if owner == "" {
			return nil, ErrNoWorkers
		}
		groups[owner] = append(groups[owner], i)
	}
	return groups, nil
}

// dispatch sends one shard (the points at idxs) to a worker and resolves
// each slot as its line streams back. On transport failure — connection
// error, bad status, timeout, or a truncated stream — the cells not yet
// resolved are re-routed to the remaining healthy workers; cells the
// worker already answered keep their results. The trace ID rides the
// X-Trace-Id header, so the worker's own spans land under the same trace.
func (f *fleet) dispatch(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point,
	slots []*slot, url string, idxs []int) {
	dispatchStart := time.Now()
	w := f.pool.byURL[url]
	w.shards.Add(1)
	w.cells.Add(int64(len(idxs)))

	shard := make([]exp.Point, len(idxs))
	for k, i := range idxs {
		shard[k] = points[i]
	}
	body, err := json.Marshal(serve.NewCellsRequest(h.Options(), shard))
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
		f.tracer.Record(trace.Span{
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
	idle := time.AfterFunc(f.cfg.ShardTimeout, cancel)
	defer idle.Stop()
	failure := func(cause error) {
		var missing []int
		for k, i := range idxs {
			if !resolved[k] {
				missing = append(missing, i)
			}
		}
		f.reroute(ctx, traceID, h, points, slots, w, missing, cause)
	}

	httpReq, err := http.NewRequestWithContext(shardCtx, "POST", url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		failure(err)
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(trace.Header, traceID)
	resp, err := f.pool.client.Do(httpReq)
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
		idle.Reset(f.cfg.ShardTimeout)
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
		serve.SaveCell(f.cfg.Store, h, points[idxs[line.I]], sl.v)
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
func (f *fleet) reroute(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point,
	slots []*slot, w *workerState, missing []int, cause error) {
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
	f.reroutes.Add(int64(len(missing)))
	f.cfg.Logger.Warn("worker failed, re-routing",
		"trace_id", traceID, "worker", w.url,
		"missing_cells", len(missing), "cause", cause.Error())

	var retry []int
	for _, i := range missing {
		if slots[i].attempts > f.cfg.MaxRetries {
			err := fmt.Errorf("%s: worker %s failed (%v) and retry budget is spent",
				points[i].Label(), w.url, cause)
			f.tracer.Record(trace.Span{
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
	groups, err := f.plan(h, points, retry)
	if err != nil {
		for _, i := range retry {
			slots[i].fail(fmt.Errorf("%s: %w after worker %s failed (%v)",
				points[i].Label(), ErrNoWorkers, w.url, cause))
		}
		return
	}
	for url, idxs := range groups {
		f.pool.byURL[url].adopted.Add(int64(len(idxs)))
		go f.dispatch(ctx, traceID, h, points, slots, url, idxs)
	}
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
func (c *Coordinator) Metrics() Metrics { return c.fleet.snapshot(c.srv.RequestStats()) }

// Metrics implements serve.Resolver: the coordinator's JSON /metrics body.
func (f *fleet) Metrics(rs serve.RequestStats) any { return f.snapshot(rs) }

func (f *fleet) snapshot(rs serve.RequestStats) Metrics {
	return Metrics{
		UptimeSec:        rs.UptimeSec,
		Requests:         rs.Requests,
		Sweeps:           rs.Sweeps,
		CellsServed:      rs.CellsServed,
		CellsRerouted:    f.reroutes.Load(),
		NoWorkerErrors:   f.noWorkers.Load(),
		JournalEnabled:   f.cfg.Store != nil,
		CellsFromJournal: f.storedCells.Load(),
		SweepsResumed:    f.resumes.Load(),
		WorkersTotal:     len(f.pool.workers),
		WorkersHealthy:   f.pool.healthyCount(),
		Workers:          f.pool.metrics(),
		SweepLatencyMS:   serve.ToLatencyJSON(rs.Latency),
	}
}
