package serve

import (
	"reflect"
	"strings"

	"neummu/internal/counters"
	"neummu/internal/store"
	"neummu/internal/trace"
)

// This file renders the server's /metrics state in the Prometheus text
// exposition format (GET /metrics?format=prometheus): every metric of the
// JSON body plus the per-stage latency histograms the tracer accumulates.
// The rendering goes through trace.PromWriter, whose family discipline is
// enforced by construction, and the CI smoke jobs validate live scrapes
// with the matching strict parser (trace.ParseProm via cmd/promlint).

// WriteProm writes the local role's families; the front end appends the
// per-stage histograms.
func (l local) WriteProm(p *trace.PromWriter, rs RequestStats) {
	s := l.s
	m := s.snapshot(rs)

	p.Family("neuserve_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Sample(m.UptimeSec)
	p.Family("neuserve_requests_total", "counter", "HTTP requests accepted (any endpoint).")
	p.Sample(float64(m.Requests))
	p.Family("neuserve_overloads_total", "counter", "Requests rejected with 429 (job queue full).")
	p.Sample(float64(m.Overloads))

	p.Family("neuserve_queue_depth", "gauge", "Jobs waiting in the scheduler queue.")
	p.Sample(float64(m.QueueDepth))
	p.Family("neuserve_workers", "gauge", "Simulation worker budget.")
	p.Sample(float64(m.Workers))

	p.Family("neuserve_cells_served_total", "counter", "Sweep/sim cells streamed to clients.")
	p.Sample(float64(m.CellsServed))
	p.Family("neuserve_cells_simulated_total", "counter", "Cell simulations actually executed.")
	p.Sample(float64(m.CellsSimulated))
	p.Family("neuserve_figures_served_total", "counter", "Figure bodies streamed.")
	p.Sample(float64(m.FiguresServed))
	p.Family("neuserve_figures_built_total", "counter", "Figure renders actually executed.")
	p.Sample(float64(m.FiguresBuilt))

	writeCacheFamilies(p, "neuserve", map[string]CacheStats{
		"cell": m.CellCache, "figure": m.FigureCache,
	})

	p.Family("neuserve_disk_tier_enabled", "gauge", "1 when a durable result tier is configured.")
	p.SampleBool(m.DiskTierEnabled)
	trace.WriteLabeledCounter(p, "neuserve_disk_tier_ops_total",
		"Durable-tier operations by kind.", diskOpSamples(m.DiskTier))
	p.Family("neuserve_disk_tier_entries", "gauge", "Entries resident in the durable tier.")
	p.Sample(float64(m.DiskTier.Entries))
	p.Family("neuserve_disk_tier_bytes", "gauge", "Bytes resident in the durable tier.")
	p.Sample(float64(m.DiskTier.Bytes))
	p.Family("neuserve_disk_tier_max_bytes", "gauge", "Durable-tier byte bound.")
	p.Sample(float64(m.DiskTier.MaxBytes))
	p.Family("neuserve_disk_tier_pending_writes", "gauge", "Write-behind puts not yet on disk.")
	p.Sample(float64(m.DiskTier.PendingWrites))

	trace.WriteLatencySummary(p, "neuserve_sweep_latency_seconds",
		"Sweep/sim/cells request latency.", rs.Latency)
	trace.WriteLatencySummary(p, "neuserve_figure_latency_seconds",
		"Figure request latency.", s.metrics.figureLatency.Summary())

	trace.WriteLabeledCounter(p, "neuserve_sim_counters_total",
		"Audited simulation counter bundle summed over executed cells.",
		bundleSamples(s.metrics.countersSnapshot()))
}

// writeCacheFamilies emits one family per cache statistic with a cache
// label, covering every field of CacheStats.
func writeCacheFamilies(p *trace.PromWriter, prefix string, caches map[string]CacheStats) {
	counterOf := func(f func(CacheStats) int64) []trace.LabeledInt64 {
		out := make([]trace.LabeledInt64, 0, len(caches))
		for name, cs := range caches {
			out = append(out, trace.LabeledInt64{Labels: []string{"cache", name}, Value: f(cs)})
		}
		return out
	}
	trace.WriteLabeledCounter(p, prefix+"_cache_hits_total",
		"Cache lookups answered from a resident entry.",
		counterOf(func(c CacheStats) int64 { return c.Hits }))
	trace.WriteLabeledCounter(p, prefix+"_cache_joins_total",
		"Cache lookups that joined an in-flight computation.",
		counterOf(func(c CacheStats) int64 { return c.Joins }))
	trace.WriteLabeledCounter(p, prefix+"_cache_misses_total",
		"Cache lookups that owned a new computation.",
		counterOf(func(c CacheStats) int64 { return c.Misses }))
	trace.WriteLabeledCounter(p, prefix+"_cache_evictions_total",
		"Entries evicted to hold the byte bound.",
		counterOf(func(c CacheStats) int64 { return c.Evictions }))
	trace.WriteLabeledCounter(p, prefix+"_cache_cancels_total",
		"Queued computations dropped because every waiter disconnected.",
		counterOf(func(c CacheStats) int64 { return c.Cancels }))
	for _, g := range []struct {
		suffix, help string
		f            func(CacheStats) int64
	}{
		{"_cache_entries", "Entries resident in the cache.",
			func(c CacheStats) int64 { return int64(c.Entries) }},
		{"_cache_bytes", "Bytes resident in the cache.",
			func(c CacheStats) int64 { return c.Bytes }},
		{"_cache_max_bytes", "Cache byte bound.",
			func(c CacheStats) int64 { return c.MaxBytes }},
	} {
		p.Family(prefix+g.suffix, "gauge", g.help)
		for _, s := range sortedCacheSamples(caches, g.f) {
			p.Sample(float64(s.Value), s.Labels...)
		}
	}
}

func sortedCacheSamples(caches map[string]CacheStats, f func(CacheStats) int64) []trace.LabeledInt64 {
	out := make([]trace.LabeledInt64, 0, len(caches))
	for name, cs := range caches {
		out = append(out, trace.LabeledInt64{Labels: []string{"cache", name}, Value: f(cs)})
	}
	// Deterministic scrape order (map iteration is random).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Labels[1] < out[j-1].Labels[1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// bundleSamples flattens an audited counter bundle into labeled samples,
// one per field, named by the field's JSON tag — the same vocabulary the
// NDJSON rows and the JSON /metrics body use.
func bundleSamples(b counters.Bundle) []trace.LabeledInt64 {
	v := reflect.ValueOf(b)
	t := v.Type()
	out := make([]trace.LabeledInt64, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" || v.Field(i).Kind() != reflect.Int64 {
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "" || tag == "-" {
			continue
		}
		out = append(out, trace.LabeledInt64{
			Labels: []string{"counter", tag}, Value: v.Field(i).Int(),
		})
	}
	return out
}

func diskOpSamples(st store.Stats) []trace.LabeledInt64 {
	return []trace.LabeledInt64{
		{Labels: []string{"op", "hits"}, Value: st.Hits},
		{Labels: []string{"op", "misses"}, Value: st.Misses},
		{Labels: []string{"op", "puts"}, Value: st.Puts},
		{Labels: []string{"op", "writes"}, Value: st.Writes},
		{Labels: []string{"op", "dropped_puts"}, Value: st.DroppedPuts},
		{Labels: []string{"op", "evictions"}, Value: st.Evictions},
		{Labels: []string{"op", "quarantined"}, Value: st.Quarantined},
	}
}
