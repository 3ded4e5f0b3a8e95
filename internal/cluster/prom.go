package cluster

import (
	"net/http"

	"neummu/internal/stats"
	"neummu/internal/trace"
)

// This file renders the coordinator's /metrics state in the Prometheus
// text exposition format (GET /metrics?format=prometheus). Coordinator
// families carry the neucoord_ prefix so a dashboard scraping both tiers
// never sees colliding names; the per-stage latency histograms keep the
// shared neuserve_stage_duration_seconds name, so one query covers the
// whole fleet's stage attribution (see trace.WriteStageHistograms).

func (c *Coordinator) handleMetricsProm(w http.ResponseWriter) {
	m := c.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := trace.NewPromWriter(w)

	p.Family("neucoord_uptime_seconds", "gauge", "Seconds since the coordinator started.")
	p.Sample(m.UptimeSec)
	p.Family("neucoord_requests_total", "counter", "HTTP requests accepted (any endpoint).")
	p.Sample(float64(m.Requests))
	p.Family("neucoord_sweeps_total", "counter", "Sweeps merged to completion.")
	p.Sample(float64(m.Sweeps))
	p.Family("neucoord_cells_served_total", "counter", "Cells streamed to clients.")
	p.Sample(float64(m.CellsServed))
	p.Family("neucoord_cells_rerouted_total", "counter", "Cells re-routed after worker failures.")
	p.Sample(float64(m.CellsRerouted))
	p.Family("neucoord_no_worker_errors_total", "counter", "Requests refused with no healthy workers.")
	p.Sample(float64(m.NoWorkerErrors))

	p.Family("neucoord_journal_enabled", "gauge", "1 when the coordinator's cell store is configured.")
	p.Sample(boolGauge(m.JournalEnabled))
	p.Family("neucoord_cells_from_journal_total", "counter",
		"Cells answered from the coordinator's store without any dispatch.")
	p.Sample(float64(m.CellsFromJournal))
	p.Family("neucoord_sweeps_resumed_total", "counter",
		"Requests with at least one cell answered from the coordinator's store.")
	p.Sample(float64(m.SweepsResumed))

	p.Family("neucoord_workers", "gauge", "Configured worker count.")
	p.Sample(float64(m.WorkersTotal))
	p.Family("neucoord_workers_healthy", "gauge", "Workers currently routable.")
	p.Sample(float64(m.WorkersHealthy))

	p.Family("neucoord_worker_healthy", "gauge", "Per-worker liveness (1 = routable).")
	for _, wm := range m.Workers {
		p.Sample(boolGauge(wm.Healthy), "worker", wm.URL)
	}
	writeWorkerCounter := func(family, help string, f func(WorkerMetrics) int64) {
		samples := make([]trace.LabeledInt64, len(m.Workers))
		for i, wm := range m.Workers {
			samples[i] = trace.LabeledInt64{Labels: []string{"worker", wm.URL}, Value: f(wm)}
		}
		trace.WriteLabeledCounter(p, family, help, samples)
	}
	writeWorkerCounter("neucoord_worker_shards_total",
		"Shard dispatches sent to each worker.",
		func(w WorkerMetrics) int64 { return w.Shards })
	writeWorkerCounter("neucoord_worker_cells_assigned_total",
		"Cells assigned to each worker (including re-routed ones).",
		func(w WorkerMetrics) int64 { return w.CellsAssigned })
	writeWorkerCounter("neucoord_worker_cells_completed_total",
		"Cells each worker answered successfully.",
		func(w WorkerMetrics) int64 { return w.CellsCompleted })
	writeWorkerCounter("neucoord_worker_cell_errors_total",
		"Cells each worker answered with a per-cell error.",
		func(w WorkerMetrics) int64 { return w.CellErrors })
	writeWorkerCounter("neucoord_worker_failures_total",
		"Transport failures per worker (connection, status, timeout).",
		func(w WorkerMetrics) int64 { return w.Failures })
	writeWorkerCounter("neucoord_worker_cells_rerouted_total",
		"Cells moved off each worker after its failure.",
		func(w WorkerMetrics) int64 { return w.CellsRerouted })
	writeWorkerCounter("neucoord_worker_cells_adopted_total",
		"Re-routed cells each worker took over from a failed peer.",
		func(w WorkerMetrics) int64 { return w.CellsAdopted })

	writeLatencySummary(p, "neucoord_sweep_latency_seconds",
		"Sweep/sim/cells request latency at the coordinator.", c.sweepLatency.Summary())

	trace.WriteStageHistograms(p, "neuserve_stage_duration_seconds",
		"Per-stage request latency attribution (queue, cache, disk, compute, retry, merge).",
		c.tracer.Stages().Snapshot())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeLatencySummary mirrors the serving layer's summary rendering: the
// recorder works in milliseconds, the wire is seconds, and an empty
// window omits the quantile samples rather than inventing a zero.
func writeLatencySummary(p *trace.PromWriter, family, help string, s stats.LatencySummary) {
	p.Family(family, "summary", help)
	if !s.Valid() {
		p.Summary(nil, nil, 0, 0)
		return
	}
	p.Summary([]float64{0.5, 0.95, 0.99},
		[]float64{s.P50 / 1e3, s.P95 / 1e3, s.P99 / 1e3},
		s.Mean/1e3*float64(s.Count), s.Count)
}
