// Package serve is the simulation-as-a-service layer: an HTTP/JSON front
// end over the experiment harness (internal/exp) and the shared figure
// registry (internal/figures), with a work-conserving job scheduler and a
// content-addressed result cache between the two.
//
// The front end is the only HTTP layer of both deployment roles. It
// decodes, validates and expands every request, then hands the points to
// a Resolver and renders what comes back: rows, headers, error
// envelopes, spans and request logs. New installs the local resolver
// (scheduler, singleflight LRU, store); the cluster coordinator passes
// its ring dispatcher to NewWithResolver.
//
// Endpoints:
//
//	GET  /healthz             liveness probe
//	GET  /metrics             queue depth, cache hit rates, cells/sec,
//	                          latency percentiles (JSON)
//	GET  /v1/figures          the figure registry (name + title, JSON)
//	GET  /v1/figures/{name}   one rendered figure; the body is
//	                          byte-identical to `paperfigs -fig name`
//	POST /v1/sweep            a design-space sweep; streams one NDJSON row
//	                          per cell in grid order plus a summary line
//	POST /v1/sim              a single simulation cell (JSON object)
//	POST /v1/cells            an explicit point list, streamed back as one
//	                          NDJSON line per point in input order — the
//	                          cluster wire protocol a coordinator shards
//	                          sweeps over (see internal/cluster)
//
// The figure endpoints are local-only: a resolver front end answers them
// 404.
//
// Determinism guarantee: the response body for a given request payload is
// byte-identical across repetitions, cache hits, cache misses, worker
// counts, and concurrent load — rows stream in the same deterministic
// grid order as the offline CLI, and cache state can only change timing
// (and the X-Neuserve-Cache header), never bytes. Admission control is one
// bounded queue: when it is full the service answers 429 rather than
// queueing without bound.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/store"
	"neummu/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// Workers is the simulation-worker budget draining the scheduler
	// queue (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the scheduler's pending-job queue (0 =
	// MaxCellsPerRequest, so one request's misses always fit on an idle
	// server). A full queue rejects new requests with 429.
	QueueDepth int
	// CacheBytes bounds the per-cell result cache (0 = 64 MiB).
	CacheBytes int64
	// FigureCacheBytes bounds the rendered-figure cache (0 = 16 MiB).
	FigureCacheBytes int64
	// MaxCellsPerRequest bounds one sweep request's grid (0 = 4096).
	MaxCellsPerRequest int
	// Store is the optional durable tier behind the cell cache (nil =
	// RAM-only). On a cell-cache miss the store is consulted before
	// simulating, and every simulated cell is persisted write-behind, so
	// a process restart starts disk-warm instead of cold. The caller owns
	// the store's lifecycle (open it before New, close it after Close);
	// Server.Close drains pending writes to disk.
	Store *store.Store
	// Trace tunes the request tracer (span ring size, slow-cell threshold
	// and log depth; see trace.Config). The zero value selects the
	// defaults; tracing is always on — it is resolve-time bookkeeping,
	// never hot-path work, and never changes response bytes.
	Trace trace.Config
	// Logger receives structured request logs and slow-cell warnings
	// (nil = discard, which keeps tests and benchmarks quiet).
	Logger *slog.Logger
}

func (c Config) normalized() Config {
	if c.MaxCellsPerRequest <= 0 {
		c.MaxCellsPerRequest = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxCellsPerRequest
	}
	if c.FigureCacheBytes <= 0 {
		c.FigureCacheBytes = 16 << 20
	}
	return c
}

// harnessCacheSize bounds the harnesses a HarnessCache keeps. Each one
// holds its own plan, snapshot and oracle memos, and any request can name
// a fresh effort, so the cache keeps only the most recently used few.
// Harnesses of one effort answer the same bytes, so an eviction costs a
// rebuild, never a different answer.
const harnessCacheSize = 16

// HarnessCache memoizes one exp.Harness per merged effort (MergeEffort's
// result), so all requests at one effort share plan/snapshot/oracle
// caches: the one place that decides what selects a harness, for both
// roles. It is an LRU of harnessCacheSize entries.
type HarnessCache struct {
	workers int

	mu  sync.Mutex
	lru []harnessEntry // most recently used first
}

type harnessEntry struct {
	e exp.Effort
	h *exp.Harness
}

// NewHarnessCache returns a cache whose harnesses run sweeps on the given
// worker count (1 = a pure expansion/normalization harness that never
// simulates in parallel — what a coordinator wants).
func NewHarnessCache(workers int) *HarnessCache {
	return &HarnessCache{workers: workers}
}

// Get returns the memoized harness for an effort level, building it on
// first use and evicting the least recently used harness when full.
func (c *HarnessCache) Get(e exp.Effort) *exp.Harness {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := 0
	for i < len(c.lru) && c.lru[i].e != e {
		i++
	}
	if i == len(c.lru) {
		if i < harnessCacheSize {
			c.lru = append(c.lru, harnessEntry{})
		} else {
			i--
		}
		c.lru[i] = harnessEntry{e, exp.New(exp.Options{Effort: e, Workers: c.workers})}
	}
	ent := c.lru[i]
	copy(c.lru[1:i+1], c.lru[:i])
	c.lru[0] = ent
	return ent.h
}

// cellKey content-addresses one simulation cell: the full design Point
// plus the Identity of the harness's normalized effort. Everything that
// influences the result is in the key, and nothing else is.
type cellKey struct {
	point  exp.Point
	effort exp.Effort
}

// CellValue is the result of one cell — the scalars the wire rows need
// plus the flat counter bundle, so a cache entry costs hundreds of bytes,
// not a full npu.Result. It is what a worker's RAM cache holds and what
// LoadCell/SaveCell move to and from a store, on workers and the cluster
// coordinator alike. The JSON tags are the disk-tier value format: a
// persisted cell decodes bit-exactly (ints are exact, float64
// survives JSON's shortest-form round trip), which is what keeps
// disk-warm sweep bodies byte-identical to cold ones.
type CellValue struct {
	Cycles       int64           `json:"cycles"`
	Translations int64           `json:"translations"`
	Perf         float64         `json:"perf"`
	Counters     counters.Bundle `json:"counters"`
}

// cellEntryCost estimates a cell cache entry's footprint: the value
// (dominated by the counter bundle's ~40 int64 fields), the key, and the
// map/list bookkeeping around them.
const cellEntryCost = 640

// figKey content-addresses one rendered figure body: the figure name and
// the Identity of the harness's normalized effort, like cellKey.
type figKey struct {
	name   string
	effort exp.Effort
}

// Server is the HTTP front end. Create with New (or NewWithResolver),
// mount as an http.Handler, and Close when done (after the HTTP server
// has drained).
type Server struct {
	cfg      Config
	resolver Resolver
	metrics  *metrics
	tracer   *trace.Tracer
	logger   *slog.Logger
	mux      *http.ServeMux

	harnesses *HarnessCache

	// The local resolver's state; nil on a NewWithResolver front end.
	sched *Scheduler
	cells *Cache[cellKey, CellValue]
	figs  *Cache[figKey, []byte]
}

// New returns a ready-to-serve Server that simulates cells itself.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.sched = NewScheduler(s.cfg.Workers, s.cfg.QueueDepth)
	s.cells = NewCache[cellKey, CellValue](s.cfg.CacheBytes,
		func(CellValue) int64 { return cellEntryCost })
	s.figs = NewCache[figKey, []byte](s.cfg.FigureCacheBytes,
		func(b []byte) int64 { return int64(len(b)) + 128 })
	s.resolver = local{s}
	s.mux.HandleFunc("GET /v1/figures", s.handleFigureList)
	s.mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	return s
}

// NewWithResolver returns a front end whose cells r answers: the
// cluster coordinator's constructor. It serves New's endpoints except
// the figure registry. Its harnesses only expand and normalize grids,
// with cfg.Workers as their sweep worker count; cfg's scheduler, cache
// and store fields are unused.
func NewWithResolver(cfg Config, r Resolver) *Server {
	s := newServer(cfg)
	s.resolver = r
	return s
}

func newServer(cfg Config) *Server {
	cfg = cfg.normalized()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	traceCfg := cfg.Trace
	if traceCfg.Logger == nil {
		traceCfg.Logger = logger
	}
	s := &Server{
		cfg:       cfg,
		metrics:   newMetrics(),
		tracer:    trace.NewTracer(traceCfg),
		logger:    logger,
		harnesses: NewHarnessCache(cfg.Workers),
		mux:       http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.tracer.HandleList)
	s.mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.tracer.HandleByID(w, r, r.PathValue("id"))
	})
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/sim", s.handleSim)
	s.mux.HandleFunc("POST /v1/cells", s.handleCells)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Close stops the scheduler after letting queued jobs drain, then drains
// the disk tier's write-behind queue so every drained job's result is
// durable (the SIGTERM drain-to-disk path). Call it after the HTTP
// server has shut down, so no request is left waiting on a job the
// scheduler will never run. The store itself stays open — its owner
// closes it. On a NewWithResolver front end it does nothing.
func (s *Server) Close() {
	if s.sched == nil {
		return
	}
	s.sched.Close()
	if s.cfg.Store != nil {
		s.cfg.Store.Flush()
	}
}

// Metrics snapshots a local server's operational state (the /metrics
// body of a Server built by New).
func (s *Server) Metrics() Metrics { return s.snapshot(s.RequestStats()) }

// Tracer exposes the server's span tracer (the /debug/traces state), so
// an embedding process — the cluster worker binary, tests — can inspect
// retained spans without scraping its own HTTP surface.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the role's /metrics snapshot: JSON, or the
// Prometheus text format with ?format=prometheus, where the per-stage
// histograms both roles share close the exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m, prefix := s.resolver.Metrics(s.RequestStats())
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p := trace.NewPromWriter(w)
		if err := trace.WriteMetrics(p, prefix, m); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		trace.WriteStageHistograms(p, "neuserve_stage_duration_seconds",
			"Per-stage request latency attribution (queue, cache, disk, compute, retry, merge).",
			s.tracer.Stages().Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

// figureInfo is one row of the GET /v1/figures listing.
type figureInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

func (s *Server) handleFigureList(w http.ResponseWriter, _ *http.Request) {
	reg := figures.Registry()
	out := make([]figureInfo, len(reg))
	for i, f := range reg {
		out[i] = figureInfo{Name: f.Name, Title: f.Title}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// parseEffort reads the figure endpoint's effort query parameters: the
// effort object's fields (mode, repeat_cap, tile_cap, and the ignored
// target_ci and intra_cell_workers) plus the legacy quick flag, folded through
// the same requestEffort path the JSON endpoints use so the two surfaces
// can never diverge on validation, defaults or deprecation.
func parseEffort(r *http.Request) (exp.Effort, bool, error) {
	q := r.URL.Query()
	quick := false
	if v := q.Get("quick"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return exp.Effort{}, false, fmt.Errorf("bad quick value %q", v)
		}
		quick = b
	}
	var we WireEffort
	wireSet := false
	if v := q.Get("mode"); v != "" {
		we.Mode = v
		wireSet = true
	}
	if v := q.Get("target_ci"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return exp.Effort{}, false, fmt.Errorf("bad target_ci value %q", v)
		}
		we.TargetCI = f
		wireSet = true
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"repeat_cap", &we.RepeatCap}, {"tile_cap", &we.TileCap}, {"intra_cell_workers", &we.IntraCellWorkers}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return exp.Effort{}, false, fmt.Errorf("bad %s value %q", p.name, v)
			}
			*p.dst = n
			wireSet = true
		}
	}
	if !wireSet {
		return requestEffort(nil, quick, 0, 0)
	}
	return requestEffort(&we, quick, 0, 0)
}

// handleFigure renders one figure. The response body is byte-identical to
// `paperfigs -fig {name}` at the same effort flags, cold cache or warm —
// both render through the shared internal/figures registry, and the cache
// stores the rendered bytes verbatim.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := trace.FromRequest(r)
	name := r.PathValue("name")
	if _, ok := figures.ByName(name); !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			figures.UnknownNameError(name).Error(), traceID)
		return
	}
	e, deprecated, err := parseEffort(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	h := s.harnesses.Get(e)
	key := figKey{name, h.Options().Effort.Identity()}
	fl, err := s.figs.Resolve(r.Context(), key, s.sched.Submit,
		func() ([]byte, error) {
			s.metrics.figsBuilt.Add(1)
			var buf bytes.Buffer
			if err := figures.Render(h, &buf, name); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		})
	if err != nil {
		s.reject(w, traceID, err)
		return
	}
	setCacheHeader(w, fl.Hit)
	body, err := fl.Wait()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error(), traceID)
		return
	}
	if deprecated {
		w.Header().Set(DeprecationHeader, deprecationNote)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
	s.metrics.figsServed.Add(1)
	s.metrics.figureLatency.Record(float64(time.Since(start)) / float64(time.Millisecond))
}

// SweepRequest is the POST /v1/sweep (and, restricted to scalars,
// POST /v1/sim) payload. Unset axes take the engine defaults documented
// on exp.Axes; unset models/batches take the harness suite at the chosen
// effort. MMU kinds are oracle, iommu, neummu, or custom; page sizes are
// 4KB or 2MB.
type SweepRequest struct {
	Models     []string `json:"models,omitempty"`
	Batches    []int    `json:"batches,omitempty"`
	MMUs       []string `json:"mmus,omitempty"`
	PageSizes  []string `json:"page_sizes,omitempty"`
	PTWs       []int    `json:"ptws,omitempty"`
	PRMBSlots  []int    `json:"prmb_slots,omitempty"`
	TLBEntries []int    `json:"tlb_entries,omitempty"`

	// Legacy flat effort fields: Quick shrinks default grids and caps for
	// smoke use; RepeatCap/TileCap truncate schedules (0 = harness
	// default, matching paperfigs; -1 = simulate everything). Deprecated
	// in favor of Effort, but accepted forever with identical behavior;
	// responses to requests still using them carry an
	// X-Neuserve-Deprecated header.
	Quick     bool `json:"quick,omitempty"`
	RepeatCap int  `json:"repeat_cap,omitempty"`
	TileCap   int  `json:"tile_cap,omitempty"`

	// Effort is the unified effort object. When set, its fields win over
	// the legacy flat ones (see MergeEffort). A pointer so unset efforts
	// marshal to nothing — pre-redesign payload bytes are unchanged.
	Effort *WireEffort `json:"effort,omitempty"`
}

// CellRow is one NDJSON row of a sweep response (and the whole /v1/sim
// response).
type CellRow struct {
	Model          string  `json:"model"`
	Batch          int     `json:"batch"`
	MMU            string  `json:"mmu"`
	PageSize       string  `json:"page_size"`
	Cycles         int64   `json:"cycles"`
	Translations   int64   `json:"translations"`
	NormalizedPerf float64 `json:"normalized_perf"`
	// Counters is the cell's audited counter bundle (internal/counters).
	Counters counters.Bundle `json:"counters"`
}

// SweepSummary is the final NDJSON line of a sweep response. Counters is
// the field-wise sum of every row's bundle — the conservation laws are
// linear, so the summary bundle satisfies the same invariants the per-cell
// bundles do.
type SweepSummary struct {
	Summary           bool            `json:"summary"`
	Cells             int             `json:"cells"`
	AvgNormalizedPerf float64         `json:"avg_normalized_perf"`
	Counters          counters.Bundle `json:"counters"`
}

// parseAll parses every name of a request axis with the single-name
// parser the wire points use (nil for an unset axis).
func parseAll[T any](names []string, parse func(string) (T, error)) ([]T, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]T, len(names))
	for i, n := range names {
		v, err := parse(n)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// expand validates the request and turns it into its deterministic point
// grid plus the harness that will run it, reporting whether the request
// used the deprecated effort spelling.
func (s *Server) expand(req SweepRequest) (*exp.Harness, []exp.Point, bool, error) {
	e, deprecated, err := requestEffort(req.Effort, req.Quick, req.RepeatCap, req.TileCap)
	if err != nil {
		return nil, nil, false, err
	}
	h := s.harnesses.Get(e)
	points, err := ExpandSweep(h, req, s.cfg.MaxCellsPerRequest)
	return h, points, deprecated, err
}

// admit hands a request's points to the role's resolver. An admission
// error is answered here, before anything was written, with the envelope
// reject picks, and the failed request is recorded; ok is then false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, traceID string, start time.Time, h *exp.Harness, points []exp.Point) (cells []Pending, hits int, ok bool) {
	cells, hits, err := s.resolver.Resolve(r.Context(), traceID, h, points)
	if err != nil {
		s.reject(w, traceID, err)
		s.finishRequest(traceID, r, start, len(points), 0, 0, err)
		return nil, 0, false
	}
	return cells, hits, true
}

// finishRequest records the request-level span (merge = response encoding
// time; cells/hits summarize the grid) and emits the structured request
// log line that replaces the serving tiers' ad-hoc stderr prints.
func (s *Server) finishRequest(traceID string, r *http.Request, start time.Time, cells, hits int, mergeNS int64, reqErr error) {
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
		"cells", cells, "hits", hits,
		"ms", float64(total) / float64(time.Millisecond),
	}
	if reqErr != nil {
		sp.Err = reqErr.Error()
		attrs = append(attrs, "error", reqErr.Error())
		s.tracer.Record(sp)
		s.logger.Error("request failed", attrs...)
		return
	}
	s.tracer.Record(sp)
	s.logger.Info("request", attrs...)
}

// errorStatus is the one map from an admission or cell error to a status
// and envelope code, for both roles: admission pushback (a full or
// closed scheduler, or a worker's 429) is 429 overloaded, no backend to
// send work to is 503 unavailable, anything else is 500 internal.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusTooManyRequests, ErrCodeOverloaded
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable, ErrCodeUnavailable
	}
	return http.StatusInternalServerError, ErrCodeInternal
}

// retryable reports whether err maps to a 429 or 503: a failure a retry
// may get past. A stream whose first cell fails this way answers the
// envelope instead of committing a 200.
func retryable(err error) bool {
	status, _ := errorStatus(err)
	return status != http.StatusInternalServerError
}

// reject answers err with the uniform envelope errorStatus picks; 429
// and 503 carry Retry-After.
func (s *Server) reject(w http.ResponseWriter, traceID string, err error) {
	status, code := errorStatus(err)
	if status == http.StatusTooManyRequests {
		s.metrics.overloads.Add(1)
	}
	if status != http.StatusInternalServerError {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, code, err.Error(), traceID)
}

func setCacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Neuserve-Cache", "hit")
	} else {
		w.Header().Set("X-Neuserve-Cache", "miss")
	}
}

// setStreamHeaders sets the headers of an NDJSON response (/v1/sweep and
// /v1/cells) carrying n cells, hits of them answered at admission.
func setStreamHeaders(w http.ResponseWriter, traceID string, n, hits int, deprecated bool) {
	h := w.Header()
	if deprecated {
		h.Set(DeprecationHeader, deprecationNote)
	}
	h.Set(trace.Header, traceID)
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Neuserve-Cells", strconv.Itoa(n))
	h.Set("X-Neuserve-Cache", fmt.Sprintf("hits=%d misses=%d", hits, n-hits))
}

// decodeSweep strictly decodes a sweep/sim payload and expands it,
// answering a 400 bad_request envelope itself on failure. traceID is the
// caller's already-resolved request trace ID (resolving it here would
// mint a second one).
func (s *Server) decodeSweep(w http.ResponseWriter, r *http.Request, traceID string) (h *exp.Harness, points []exp.Point, deprecated, ok bool) {
	var req SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err != nil {
		err = fmt.Errorf("bad request body: %w", err)
	} else {
		h, points, deprecated, err = s.expand(req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error(), traceID)
		return nil, nil, false, false
	}
	return h, points, deprecated, true
}

// flushBeforeWait sends the rows written so far when the stream is about
// to wait on cell c, so a client consumes early cells while later ones
// still simulate. Rows of cells that are already resolved are written
// together and leave with the next flush (or the handler's end), one
// write for an all-hit stream instead of one per row. It returns the
// time the flush took. Callers skip it before the first cell: a flush
// there would commit the 200 status while a retryable failure of that
// cell must still answer the envelope.
func flushBeforeWait(f http.Flusher, c Pending) int64 {
	if f == nil || c.Ready() {
		return 0
	}
	t0 := time.Now()
	f.Flush()
	return int64(time.Since(t0))
}

// handleSweep streams one NDJSON row per cell, in grid order, then a
// summary line. Rows are written as their cells resolve in order and
// flushed before each wait (flushBeforeWait); the bytes are identical
// whether every cell was a cache hit, a miss, or a mix.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := trace.FromRequest(r)
	h, points, deprecated, ok := s.decodeSweep(w, r, traceID)
	if !ok {
		return
	}
	cells, hits, ok := s.admit(w, r, traceID, start, h, points)
	if !ok {
		return
	}
	setStreamHeaders(w, traceID, len(points), hits, deprecated)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sum := 0.0
	var agg counters.Bundle
	var mergeNS int64
	for i, c := range cells {
		if i > 0 {
			mergeNS += flushBeforeWait(flusher, c)
		}
		v, _, err := c.Wait(r.Context())
		if err != nil {
			if i == 0 && retryable(err) {
				s.reject(w, traceID, err)
			} else {
				// Any other failure ends the stream with a terminal error
				// line in place of the summary.
				enc.Encode(map[string]string{"error": err.Error()})
			}
			s.finishRequest(traceID, r, start, len(points), hits, mergeNS, err)
			return
		}
		sum += v.Perf
		agg = agg.Add(v.Counters)
		te := time.Now()
		enc.Encode(pointRow(points[i], v))
		mergeNS += int64(time.Since(te))
	}
	te := time.Now()
	enc.Encode(SweepSummary{
		Summary: true, Cells: len(points),
		AvgNormalizedPerf: sum / float64(len(points)),
		Counters:          agg,
	})
	mergeNS += int64(time.Since(te))
	s.metrics.sweeps.Add(1)
	s.served(len(points), start)
	s.finishRequest(traceID, r, start, len(points), hits, mergeNS, nil)
}

// handleSim runs a single cell and returns one JSON object. It is the
// one-point restriction of handleSweep; any failure answers the envelope.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := trace.FromRequest(r)
	h, points, deprecated, ok := s.decodeSweep(w, r, traceID)
	if !ok {
		return
	}
	if len(points) != 1 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Sprintf("sim requires exactly one cell, got %d (use /v1/sweep for grids)",
				len(points)), traceID)
		return
	}
	cells, hits, ok := s.admit(w, r, traceID, start, h, points)
	if !ok {
		return
	}
	v, hit, err := cells[0].Wait(r.Context())
	if err != nil {
		s.reject(w, traceID, err)
		s.finishRequest(traceID, r, start, 1, hits, 0, err)
		return
	}
	w.Header().Set(trace.Header, traceID)
	if deprecated {
		w.Header().Set(DeprecationHeader, deprecationNote)
	}
	setCacheHeader(w, hit)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	te := time.Now()
	enc.Encode(pointRow(points[0], v))
	s.served(1, start)
	s.finishRequest(traceID, r, start, 1, hits, int64(time.Since(te)), nil)
}

// served books a completed sweep/sim/cells response of n cells.
func (s *Server) served(n int, start time.Time) {
	s.metrics.cellsServed.Add(int64(n))
	s.metrics.sweepLatency.Record(float64(time.Since(start)) / float64(time.Millisecond))
}
