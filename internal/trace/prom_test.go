package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Every tag form WriteMetrics knows, in the shapes the serving layers'
// /metrics snapshots use.
type shapeCache struct {
	Hits    int64 `json:"hits" prom:"cache_hits_total counter" help:"Cache hits."`
	Entries int   `json:"entries" prom:"cache_entries gauge" help:"Cache entries."`
}

type shapeStore struct {
	Hits    int64 `json:"hits" prom:"store_ops_total counter op" help:"Store operations."`
	Misses  int64 `json:"misses" prom:"store_ops_total counter op"`
	Entries int   `json:"entries" prom:"store_entries gauge" help:"Store entries."`
}

type shapeWorker struct {
	URL     string `json:"url" prom:"label"`
	Healthy bool   `json:"healthy" prom:"worker_healthy gauge" help:"Worker liveness."`
	Shards  int64  `json:"shards" prom:"worker_shards_total counter" help:"Shards per worker."`
}

type shapeRequests struct {
	Requests int64       `json:"requests" prom:"requests_total counter" help:"Requests."`
	Latency  LatencyJSON `json:"latency_ms" prom:"latency_seconds summary" help:"Latency."`
}

type shapeSnapshot struct {
	shapeRequests
	Uptime   float64       `json:"uptime_sec" prom:"uptime_seconds gauge" help:"Uptime."`
	Ratio    float64       `json:"ratio" prom:"-"`
	Enabled  bool          `json:"enabled" prom:"enabled gauge" help:"Enabled."`
	Cell     shapeCache    `json:"cell_cache" prom:"cache=cell"`
	Figure   shapeCache    `json:"figure_cache" prom:"cache=figure"`
	Store    shapeStore    `json:"store" prom:""`
	Workers  []shapeWorker `json:"workers" prom:"worker=URL"`
	Idle     LatencyJSON   `json:"idle_ms" prom:"idle_seconds summary" help:"Empty window."`
	Counters struct {
		TLBHits int64 `json:"tlb_hits"`
		Walks   int64 `json:"walks"`
	} `json:"counters" prom:"sim_counters_total counter counter" help:"Counter bundle."`
	hidden int
}

func shapeValue() shapeSnapshot {
	p50, p95, p99, mean, max := 2.0, 4.0, 8.0, 3.0, 9.0
	m := shapeSnapshot{
		shapeRequests: shapeRequests{Requests: 7, Latency: LatencyJSON{
			Count: 4, Mean: &mean, P50: &p50, P95: &p95, P99: &p99, Max: &max}},
		Uptime: 1.5, Ratio: 0.25, Enabled: true,
		Cell:    shapeCache{Hits: 3, Entries: 2},
		Figure:  shapeCache{Hits: 1, Entries: 1},
		Store:   shapeStore{Hits: 5, Misses: 6, Entries: 4},
		Workers: []shapeWorker{{URL: "http://a", Healthy: true, Shards: 2}, {URL: "http://b", Shards: 1}},
	}
	m.Counters.TLBHits, m.Counters.Walks = 11, 12
	return m
}

const shapeExposition = `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total 7
# HELP x_latency_seconds Latency.
# TYPE x_latency_seconds summary
x_latency_seconds{quantile="0.5"} 0.002
x_latency_seconds{quantile="0.95"} 0.004
x_latency_seconds{quantile="0.99"} 0.008
x_latency_seconds_sum 0.012
x_latency_seconds_count 4
# HELP x_uptime_seconds Uptime.
# TYPE x_uptime_seconds gauge
x_uptime_seconds 1.5
# HELP x_enabled Enabled.
# TYPE x_enabled gauge
x_enabled 1
# HELP x_cache_hits_total Cache hits.
# TYPE x_cache_hits_total counter
x_cache_hits_total{cache="cell"} 3
x_cache_hits_total{cache="figure"} 1
# HELP x_cache_entries Cache entries.
# TYPE x_cache_entries gauge
x_cache_entries{cache="cell"} 2
x_cache_entries{cache="figure"} 1
# HELP x_store_ops_total Store operations.
# TYPE x_store_ops_total counter
x_store_ops_total{op="hits"} 5
x_store_ops_total{op="misses"} 6
# HELP x_store_entries Store entries.
# TYPE x_store_entries gauge
x_store_entries 4
# HELP x_worker_healthy Worker liveness.
# TYPE x_worker_healthy gauge
x_worker_healthy{worker="http://a"} 1
x_worker_healthy{worker="http://b"} 0
# HELP x_worker_shards_total Shards per worker.
# TYPE x_worker_shards_total counter
x_worker_shards_total{worker="http://a"} 2
x_worker_shards_total{worker="http://b"} 1
# HELP x_idle_seconds Empty window.
# TYPE x_idle_seconds summary
x_idle_seconds_sum 0
x_idle_seconds_count 0
# HELP x_sim_counters_total Counter bundle.
# TYPE x_sim_counters_total counter
x_sim_counters_total{counter="tlb_hits"} 11
x_sim_counters_total{counter="walks"} 12
`

// TestWriteMetricsShapes pins the exposition of every tag form.
func TestWriteMetricsShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(NewPromWriter(&buf), "x_", shapeValue()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != shapeExposition {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), shapeExposition)
	}
}

// TestWriteMetricsRejectsBadTags: an untagged exported field, or any
// other definition error, fails the render before anything is written.
func TestWriteMetricsRejectsBadTags(t *testing.T) {
	cases := map[string]struct {
		m    any
		want string
	}{
		"untagged field": {struct {
			A int64 `json:"a" prom:"a_total counter" help:"A."`
			B int64 `json:"b"`
		}{}, "no prom tag"},
		"untagged nested field": {struct {
			C struct {
				B int64 `json:"b"`
			} `json:"c" prom:"cache=cell"`
		}{}, "no prom tag"},
		"dash on a counter": {struct {
			A int64 `json:"a" prom:"-"`
		}{}, "does not fit"},
		"no help": {struct {
			A int64 `json:"a" prom:"a_total counter"`
		}{}, "without a help tag"},
		"unknown type": {struct {
			A int64 `json:"a" prom:"a_total histogram" help:"A."`
		}{}, "unknown metric type"},
		"type clash": {struct {
			A int64 `json:"a" prom:"a counter" help:"A."`
			B int64 `json:"b" prom:"a gauge"`
		}{}, "redefined"},
		"help clash": {struct {
			A int64 `json:"a" prom:"a counter op" help:"A."`
			B int64 `json:"b" prom:"a counter op" help:"B."`
		}{}, "redefined"},
		"summary of a number": {struct {
			A int64 `json:"a" prom:"a_seconds summary" help:"A."`
		}{}, "LatencyJSON"},
		"string sample": {struct {
			A string `json:"a" prom:"a gauge" help:"A."`
		}{}, "not a sample value"},
		"slice label missing": {struct {
			W []struct {
				N int64 `json:"n" prom:"n_total counter" help:"N."`
			} `json:"w" prom:"worker=URL"`
		}{W: make([]struct {
			N int64 `json:"n" prom:"n_total counter" help:"N."`
		}, 1)}, "no string field URL"},
	}
	for name, c := range cases {
		var buf bytes.Buffer
		err := WriteMetrics(NewPromWriter(&buf), "x_", c.m)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: wrote %q before failing", name, buf.String())
		}
	}
}
