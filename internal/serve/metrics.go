package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"neummu/internal/counters"
	"neummu/internal/stats"
	"neummu/internal/store"
	"neummu/internal/trace"
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

// Metrics is the /metrics response: queue and cache state, throughput,
// and request latency percentiles. It is the one definition of the
// worker's metrics: the JSON body encodes it and trace.WriteMetrics
// renders its prom tags as the neuserve_ Prometheus families.
type Metrics struct {
	RequestStats
	Overloads int64 `json:"overloads" prom:"overloads_total counter" help:"Requests rejected with 429 (job queue full)."`

	QueueDepth int `json:"queue_depth" prom:"queue_depth gauge" help:"Jobs waiting in the scheduler queue."`
	Workers    int `json:"workers" prom:"workers gauge" help:"Simulation worker budget."`

	CellsSimulated  int64   `json:"cells_simulated" prom:"cells_simulated_total counter" help:"Cell simulations actually executed."`
	CellsPerSec     float64 `json:"cells_per_sec" prom:"-"`
	SimulatedPerSec float64 `json:"simulated_per_sec" prom:"-"`

	CellCache   CacheStats `json:"cell_cache" prom:"cache=cell"`
	CellHitRate float64    `json:"cell_cache_hit_rate" prom:"-"`
	// DiskTier reports the durable result tier (internal/store) when one
	// is configured: hits/misses, write-behind progress, GC evictions, and
	// quarantined-corrupt counts. Zero-valued when DiskTierEnabled is
	// false.
	DiskTierEnabled bool        `json:"disk_tier_enabled" prom:"disk_tier_enabled gauge" help:"1 when a durable result tier is configured."`
	DiskTier        store.Stats `json:"disk_tier" prom:""`
	FigureCache     CacheStats  `json:"figure_cache" prom:"cache=figure"`
	FiguresServed   int64       `json:"figures_served" prom:"figures_served_total counter" help:"Figure bodies streamed."`
	FiguresBuilt    int64       `json:"figures_built" prom:"figures_built_total counter" help:"Figure renders actually executed."`

	FigureLatencyMS trace.LatencyJSON `json:"figure_latency_ms" prom:"figure_latency_seconds summary" help:"Figure request latency."`

	// SimCounters is the audited counter bundle summed over every cell
	// simulation this process executed — the operator-facing aggregate of
	// the same record each NDJSON row carries — as one family labeled
	// counter=<json key>.
	SimCounters counters.Bundle `json:"sim_counters" prom:"sim_counters_total counter counter" help:"Audited simulation counter bundle summed over executed cells."`
}

// RequestStats is the front end's request-layer state: the block of
// /metrics that both roles report, embedded in each role's body so its
// JSON keys stay flat, and passed to the Resolver that snapshots the
// rest.
type RequestStats struct {
	UptimeSec      float64           `json:"uptime_sec" prom:"uptime_seconds gauge" help:"Seconds since the process started."`
	Requests       int64             `json:"requests" prom:"requests_total counter" help:"HTTP requests accepted (any endpoint)."`
	Sweeps         int64             `json:"sweeps" prom:"sweeps_total counter" help:"/v1/sweep responses streamed to completion."`
	CellsServed    int64             `json:"cells_served" prom:"cells_served_total counter" help:"Cells of completed /v1/sweep, /v1/sim and /v1/cells responses."`
	SweepLatencyMS trace.LatencyJSON `json:"sweep_latency_ms" prom:"sweep_latency_seconds summary" help:"Sweep/sim/cells request latency."`
}

// RequestStats snapshots the front end's request counters.
func (s *Server) RequestStats() RequestStats {
	m := s.metrics
	return RequestStats{
		UptimeSec:      time.Since(m.start).Seconds(),
		Requests:       m.requests.Load(),
		Sweeps:         m.sweeps.Load(),
		CellsServed:    m.cellsServed.Load(),
		SweepLatencyMS: trace.ToLatencyJSON(m.sweepLatency.Summary()),
	}
}

func (s *Server) snapshot(rs RequestStats) Metrics {
	m := s.metrics
	up, cells := rs.UptimeSec, rs.CellsServed
	simulated := m.simulated.Load()
	cellStats := s.cells.Stats()
	out := Metrics{
		RequestStats: rs,
		Overloads:    m.overloads.Load(),

		QueueDepth: s.sched.QueueDepth(),
		Workers:    s.sched.Workers(),

		CellsSimulated: simulated,

		CellCache:     cellStats,
		CellHitRate:   cellStats.HitRate(),
		FigureCache:   s.figs.Stats(),
		FiguresServed: m.figsServed.Load(),
		FiguresBuilt:  m.figsBuilt.Load(),

		FigureLatencyMS: trace.ToLatencyJSON(m.figureLatency.Summary()),

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
