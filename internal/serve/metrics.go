package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"neummu/internal/counters"
	"neummu/internal/stats"
	"neummu/internal/store"
)

// metrics aggregates the service's operational counters. Latencies are
// recorded in milliseconds through internal/stats' windowed recorder;
// everything else is a plain atomic counter so the hot path never takes
// a lock.
type metrics struct {
	start time.Time

	requests  atomic.Int64 // HTTP requests accepted (any endpoint)
	overloads atomic.Int64 // requests rejected with 429

	sweeps      atomic.Int64 // /v1/sweep responses streamed to completion
	cellsServed atomic.Int64 // sweep/sim/cells cells streamed to clients
	simulated   atomic.Int64 // cell simulations actually executed
	figsServed  atomic.Int64 // figure bodies streamed
	figsBuilt   atomic.Int64 // figure renders actually executed

	sweepLatency  *stats.Latency
	figureLatency *stats.Latency

	// simCounters sums the audited counter bundle of every cell simulation
	// this process executed (misses only — cache hits re-serve counters
	// already summed here). Bundle sums are not hot-path work: one lock per
	// simulation, not per event.
	countersMu  sync.Mutex
	simCounters counters.Bundle
}

// addCounters folds one simulation's bundle into the process aggregate.
func (m *metrics) addCounters(b counters.Bundle) {
	m.countersMu.Lock()
	m.simCounters = m.simCounters.Add(b)
	m.countersMu.Unlock()
}

func (m *metrics) countersSnapshot() counters.Bundle {
	m.countersMu.Lock()
	defer m.countersMu.Unlock()
	return m.simCounters
}

func newMetrics() *metrics {
	return &metrics{
		start:         time.Now(),
		sweepLatency:  stats.NewLatency(0),
		figureLatency: stats.NewLatency(0),
	}
}

// LatencyJSON is the wire form of a stats.LatencySummary, shared by both
// roles' /metrics bodies so they report latency in one shape. The float
// fields are pointers so an empty window omits them entirely — the
// recorder reports NaN for "no samples" (which JSON cannot carry), and a
// dashboard must see absence, not a fake 0ms p99.
type LatencyJSON struct {
	Count int64    `json:"count"`
	Mean  *float64 `json:"mean,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P95   *float64 `json:"p95,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

// ToLatencyJSON converts a summary to its wire form, dropping the NaN
// fields of an empty window.
func ToLatencyJSON(s stats.LatencySummary) LatencyJSON {
	out := LatencyJSON{Count: s.Count}
	if !s.Valid() {
		return out
	}
	mean, p50, p95, p99, max := s.Mean, s.P50, s.P95, s.P99, s.Max
	out.Mean, out.P50, out.P95, out.P99, out.Max = &mean, &p50, &p95, &p99, &max
	return out
}

// Metrics is the /metrics response: queue and cache state, throughput,
// and request latency percentiles.
type Metrics struct {
	UptimeSec float64 `json:"uptime_sec"`
	Requests  int64   `json:"requests"`
	Overloads int64   `json:"overloads"`

	QueueDepth int `json:"queue_depth"`
	Workers    int `json:"workers"`

	CellsServed     int64   `json:"cells_served"`
	CellsSimulated  int64   `json:"cells_simulated"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	SimulatedPerSec float64 `json:"simulated_per_sec"`

	CellCache   CacheStats `json:"cell_cache"`
	CellHitRate float64    `json:"cell_cache_hit_rate"`
	// DiskTier reports the durable result tier (internal/store) when one
	// is configured: hits/misses, write-behind progress, GC evictions, and
	// quarantined-corrupt counts. Zero-valued when DiskTierEnabled is
	// false.
	DiskTierEnabled bool        `json:"disk_tier_enabled"`
	DiskTier        store.Stats `json:"disk_tier"`
	FigureCache     CacheStats  `json:"figure_cache"`
	FiguresServed   int64       `json:"figures_served"`
	FiguresBuilt    int64       `json:"figures_built"`

	SweepLatencyMS  LatencyJSON `json:"sweep_latency_ms"`
	FigureLatencyMS LatencyJSON `json:"figure_latency_ms"`

	// SimCounters is the audited counter bundle summed over every cell
	// simulation this process executed — the operator-facing aggregate of
	// the same record each NDJSON row carries.
	SimCounters counters.Bundle `json:"sim_counters"`
}

// RequestStats is the front end's request-layer state: the part of
// /metrics that both roles report, passed to the Resolver that renders
// the rest.
type RequestStats struct {
	UptimeSec   float64
	Requests    int64                // HTTP requests accepted (any endpoint)
	Sweeps      int64                // /v1/sweep responses streamed to completion
	CellsServed int64                // cells of completed sweep/sim/cells responses
	Latency     stats.LatencySummary // their latency, in milliseconds
}

// RequestStats snapshots the front end's request counters.
func (s *Server) RequestStats() RequestStats {
	m := s.metrics
	return RequestStats{
		UptimeSec:   time.Since(m.start).Seconds(),
		Requests:    m.requests.Load(),
		Sweeps:      m.sweeps.Load(),
		CellsServed: m.cellsServed.Load(),
		Latency:     m.sweepLatency.Summary(),
	}
}

func (s *Server) snapshot(rs RequestStats) Metrics {
	m := s.metrics
	up, cells := rs.UptimeSec, rs.CellsServed
	simulated := m.simulated.Load()
	cellStats := s.cells.Stats()
	out := Metrics{
		UptimeSec: up,
		Requests:  rs.Requests,
		Overloads: m.overloads.Load(),

		QueueDepth: s.sched.QueueDepth(),
		Workers:    s.sched.Workers(),

		CellsServed:    cells,
		CellsSimulated: simulated,

		CellCache:     cellStats,
		CellHitRate:   cellStats.HitRate(),
		FigureCache:   s.figs.Stats(),
		FiguresServed: m.figsServed.Load(),
		FiguresBuilt:  m.figsBuilt.Load(),

		SweepLatencyMS:  ToLatencyJSON(rs.Latency),
		FigureLatencyMS: ToLatencyJSON(m.figureLatency.Summary()),

		SimCounters: m.countersSnapshot(),
	}
	if s.cfg.Store != nil {
		out.DiskTierEnabled = true
		out.DiskTier = s.cfg.Store.Stats()
	}
	if up > 0 {
		out.CellsPerSec = float64(cells) / up
		out.SimulatedPerSec = float64(simulated) / up
	}
	return out
}
