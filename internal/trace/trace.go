// Package trace is the zero-dependency request-tracing layer of the
// serving tiers: every /v1/sweep, /v1/sim, and /v1/cells request carries a
// trace ID (honoring an inbound X-Trace-Id header, minting one otherwise)
// that propagates over the cluster wire protocol, so a fleet-wide sweep is
// one trace. Each cell resolved under a trace accumulates a Span — a
// record of monotonic per-stage durations (queue wait, cache lookup, disk
// get, compute, retry/re-route, merge) plus the cell's audited counter
// bundle — stored in a fixed-size per-process ring buffer and exposed via
// GET /debug/traces (list + by-ID JSON).
//
// The design mirrors internal/counters' discipline: spans are recorded at
// resolve time, off the simulation hot path (the zero-alloc budgets pinned
// by the AllocsPerRun tests never see a span), and tracing never perturbs
// response bytes — a traced sweep body is byte-identical to an untraced
// one. On top of the same stage data the package provides per-stage
// latency histograms, a strict Prometheus text-exposition writer and
// linter (prom.go, promlint.go), and WriteMetrics, which renders a
// /metrics snapshot struct from its prom tags, so the JSON /metrics body
// and its machine-scrapable twin have one definition.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"neummu/internal/counters"
)

// Header is the trace-ID header honored on inbound requests, set on
// responses, and propagated on coordinator→worker dispatches.
const Header = "X-Trace-Id"

// NewID mints a 16-byte random trace ID in hex (the shape W3C trace
// context uses for trace-id, without the surrounding traceparent framing).
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a broken entropy
		// source should be loud, not produce colliding trace IDs.
		panic("trace: reading random bytes: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// maxInboundID bounds client-supplied trace IDs so a hostile header cannot
// bloat the ring buffer or the logs.
const maxInboundID = 128

// FromRequest returns the request's trace ID: the inbound X-Trace-Id
// header when present (truncated to a sane bound), a freshly minted ID
// otherwise.
func FromRequest(r *http.Request) string {
	if id := r.Header.Get(Header); id != "" {
		if len(id) > maxInboundID {
			id = id[:maxInboundID]
		}
		return id
	}
	return NewID()
}

// Stage names one segment of a request's latency. The taxonomy is fixed:
// every nanosecond of a traced cell's life is attributed to exactly one
// stage, so per-stage durations sum to the span's total (within the cost
// of recording itself).
type Stage int

const (
	// StageQueue is time spent waiting in the scheduler queue (or, for a
	// request that joined another request's in-flight computation, waiting
	// on that computation).
	StageQueue Stage = iota
	// StageCache is the content-addressed cache lookup (hit, join, or miss
	// bookkeeping, including scheduler admission).
	StageCache
	// StageDisk is the durable-tier read on a RAM miss (zero when no store
	// is configured or the cell simulated).
	StageDisk
	// StageCompute is the simulation itself (or, on a coordinator, the
	// remote dispatch: network + the worker's own stages).
	StageCompute
	// StageRetry is re-route overhead after a worker death: the time
	// between a cell's first dispatch and the dispatch that finally
	// answered it.
	StageRetry
	// StageMerge is response-stream encoding (request-level spans only).
	StageMerge

	// NumStages is the taxonomy size.
	NumStages
)

var stageNames = [NumStages]string{"queue", "cache", "disk", "compute", "retry", "merge"}

// String returns the stage's wire name (the key used in span JSON, the
// stage label in Prometheus histograms, and the taxonomy documented in
// docs/ARCHITECTURE.md).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Stages is a fixed per-stage duration vector in nanoseconds.
type Stages [NumStages]int64

// Sum returns the total attributed time.
func (st Stages) Sum() int64 {
	var n int64
	for _, v := range st {
		n += v
	}
	return n
}

// MarshalJSON encodes the vector as {"queue_ns":...,...} in taxonomy
// order, all stages present (a dashboard reads zeros, not missing keys).
func (st Stages) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 16*NumStages)
	buf = append(buf, '{')
	for i, v := range st {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, stageNames[i]...)
		buf = append(buf, `_ns":`...)
		buf = appendInt(buf, v)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON decodes the MarshalJSON shape (tests and external
// consumers of /debug/traces round-trip spans).
func (st *Stages) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for i, name := range stageNames {
		st[i] = m[name+"_ns"]
	}
	return nil
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// Span is one traced unit of work: a cell resolution or a whole request.
// Durations are monotonic (time.Since on the process clock); Start is
// wall-clock for display only.
type Span struct {
	TraceID string `json:"trace_id"`
	// Kind is "cell" for one design-point resolution, "request" for a
	// whole HTTP request.
	Kind string `json:"kind"`
	// Name labels the work: a cell's point label, or a request's
	// method+path.
	Name string `json:"name"`
	// Index is the cell's position in its request's grid (-1 for request
	// spans).
	Index int       `json:"index"`
	Start time.Time `json:"start"`
	// TotalNS is the span's observed wall duration; Stages attributes it.
	TotalNS int64  `json:"total_ns"`
	Stages  Stages `json:"stages"`
	// Hit reports a cell answered from RAM cache (on a coordinator, from
	// the answering worker's cache); DiskHit one answered from the durable
	// tier (on a coordinator, its own store, without any dispatch).
	Hit     bool `json:"hit,omitempty"`
	DiskHit bool `json:"disk_hit,omitempty"`
	// Cells is the request span's grid size (0 for cell spans).
	Cells int `json:"cells,omitempty"`
	// Worker is the answering worker's URL (coordinator spans only).
	Worker string `json:"worker,omitempty"`
	// Attempts counts dispatches that carried the cell (coordinator spans;
	// >1 means the cell was re-routed after a worker death).
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"error,omitempty"`
	// Counters is the cell's audited bundle (nil for request spans and
	// remote cells, whose bundles the worker's own span carries).
	Counters *counters.Bundle `json:"counters,omitempty"`
}

// Config tunes a Tracer.
type Config struct {
	// RingSize bounds the per-process span ring buffer (0 = 512 spans).
	RingSize int
	// SlowThreshold is the compute-stage duration above which a cell is
	// retained in the slow-cell log and logged through the structured
	// logger (0 = 100ms; negative disables the slow log).
	SlowThreshold time.Duration
	// SlowCount bounds the slow-cell log to the top-N cells by compute
	// time (0 = 32).
	SlowCount int
	// Logger receives slow-cell records (nil = no logging).
	Logger *slog.Logger
}

func (c Config) normalized() Config {
	if c.RingSize <= 0 {
		c.RingSize = 512
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	if c.SlowCount <= 0 {
		c.SlowCount = 32
	}
	return c
}

// Tracer is one process's tracing state: the span ring buffer, the
// slow-cell log, and the per-stage latency histograms. All methods are
// safe for concurrent use; Record takes one short mutex per span (spans
// are per-cell, not per-event — recording is resolve-time work, exactly
// like counter collection).
type Tracer struct {
	cfg    Config
	ring   *Ring
	slow   *slowLog
	stages *StageHistograms
}

// NewTracer returns a tracer with the given knobs.
func NewTracer(cfg Config) *Tracer {
	cfg = cfg.normalized()
	return &Tracer{
		cfg:    cfg,
		ring:   NewRing(cfg.RingSize),
		slow:   newSlowLog(cfg.SlowCount),
		stages: NewStageHistograms(),
	}
}

// Record stores a span in the ring, folds its stage durations into the
// histograms, and — when its compute stage crosses the slow threshold —
// retains it in the slow-cell log and emits a structured log record.
func (t *Tracer) Record(s Span) {
	t.ring.Record(s)
	t.stages.Record(s.Stages)
	if t.cfg.SlowThreshold > 0 && s.Kind == "cell" &&
		s.Stages[StageCompute] >= int64(t.cfg.SlowThreshold) {
		t.slow.offer(s)
		if t.cfg.Logger != nil {
			t.cfg.Logger.Warn("slow cell",
				"trace_id", s.TraceID, "cell", s.Name,
				"compute_ms", float64(s.Stages[StageCompute])/1e6,
				"total_ms", float64(s.TotalNS)/1e6,
				"hit", s.Hit, "disk_hit", s.DiskHit)
		}
	}
}

// Stages returns the per-stage histogram set (the /metrics view).
func (t *Tracer) Stages() *StageHistograms { return t.stages }

// Trace is the by-ID view GET /debug/traces/{id} serves: every retained
// span recorded under one trace ID, oldest first.
type Trace struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// ByTrace returns the retained spans under a trace ID, oldest first.
func (t *Tracer) ByTrace(id string) Trace {
	return Trace{TraceID: id, Spans: t.ring.ByTrace(id)}
}

// TraceSummary is one row of the GET /debug/traces listing.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Spans   int       `json:"spans"`
	First   time.Time `json:"first_start"`
	// TotalNS sums the request spans' durations under the trace (falling
	// back to cell spans when no request span is retained).
	TotalNS int64 `json:"total_ns"`
}

// TraceList is the GET /debug/traces body.
type TraceList struct {
	// Traces summarizes every trace with retained spans, most recent
	// first.
	Traces []TraceSummary `json:"traces"`
	// SlowCells is the top-N cells by compute time above the slow
	// threshold, slowest first.
	SlowCells []Span `json:"slow_cells"`
}

// List snapshots the trace listing and the slow-cell log.
func (t *Tracer) List() TraceList {
	spans := t.ring.Snapshot()
	byID := make(map[string]*TraceSummary)
	order := make([]string, 0, 16)
	for _, s := range spans { // oldest first
		sum, ok := byID[s.TraceID]
		if !ok {
			sum = &TraceSummary{TraceID: s.TraceID, First: s.Start}
			byID[s.TraceID] = sum
			order = append(order, s.TraceID)
		}
		sum.Spans++
		if s.Kind == "request" {
			sum.TotalNS += s.TotalNS
		}
	}
	for _, sum := range byID {
		if sum.TotalNS == 0 {
			for _, s := range spans {
				if s.TraceID == sum.TraceID {
					sum.TotalNS += s.TotalNS
				}
			}
		}
	}
	out := TraceList{
		Traces:    make([]TraceSummary, 0, len(order)),
		SlowCells: t.slow.snapshot(),
	}
	for i := len(order) - 1; i >= 0; i-- { // most recent trace first
		out.Traces = append(out.Traces, *byID[order[i]])
	}
	return out
}

// HandleList serves GET /debug/traces.
func (t *Tracer) HandleList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(t.List())
}

// HandleByID serves GET /debug/traces/{id}. An unknown ID answers an
// empty span list, not a 404 — the ring is a bounded window, so absence
// means "evicted or never seen", which the client cannot distinguish.
func (t *Tracer) HandleByID(w http.ResponseWriter, _ *http.Request, id string) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(t.ByTrace(id))
}

// Ring is a fixed-size span ring buffer: the newest RingSize spans are
// retained, older ones overwritten. One short mutex guards it — recording
// is a copy into a pre-allocated slot, so the critical section is tens of
// nanoseconds and the buffer never grows.
type Ring struct {
	mu     sync.Mutex
	buf    []Span
	next   int
	filled bool
}

// NewRing returns a ring retaining n spans (n <= 0 selects 512).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 512
	}
	return &Ring{buf: make([]Span, n)}
}

// Record stores one span, overwriting the oldest when full.
func (r *Ring) Record(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (r *Ring) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Span, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Span, len(r.buf))
	n := copy(out, r.buf[r.next:])
	copy(out[n:], r.buf[:r.next])
	return out
}

// ByTrace returns the retained spans under one trace ID, oldest first.
func (r *Ring) ByTrace(id string) []Span {
	var out []Span
	for _, s := range r.Snapshot() {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}

// Len reports how many spans are retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// slowLog retains the top-N cell spans by compute-stage duration. Offers
// below the current floor are rejected in O(1) once the log is full; the
// log is tiny (N = 32 by default) so inserts just sort.
type slowLog struct {
	mu    sync.Mutex
	max   int
	spans []Span
}

func newSlowLog(max int) *slowLog { return &slowLog{max: max} }

func (l *slowLog) offer(s Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == l.max {
		if s.Stages[StageCompute] <= l.spans[len(l.spans)-1].Stages[StageCompute] {
			return
		}
		l.spans = l.spans[:len(l.spans)-1]
	}
	l.spans = append(l.spans, s)
	sort.SliceStable(l.spans, func(i, j int) bool {
		return l.spans[i].Stages[StageCompute] > l.spans[j].Stages[StageCompute]
	})
}

func (l *slowLog) snapshot() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}
