package cluster

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// workerState is the coordinator's view of one worker: liveness plus the
// per-worker counters folded into /metrics.
type workerState struct {
	url string

	healthy atomic.Bool

	shards    atomic.Int64 // shard dispatches sent to this worker
	cells     atomic.Int64 // cells assigned (including re-routed ones)
	completed atomic.Int64 // cells answered successfully
	cellErrs  atomic.Int64 // cells answered with a per-cell error
	failures  atomic.Int64 // transport failures (connection, status, timeout)
	rerouted  atomic.Int64 // cells moved off this worker after a failure
	adopted   atomic.Int64 // re-routed cells this worker took over
}

// WorkerMetrics is the /metrics row for one worker. A re-routed cell is
// attributed to both sides of the move: CellsRerouted on the worker whose
// failure orphaned it and CellsAdopted on the worker that answered it
// instead.
type WorkerMetrics struct {
	URL            string `json:"url" prom:"label"`
	Healthy        bool   `json:"healthy" prom:"worker_healthy gauge" help:"Per-worker liveness (1 = routable)."`
	Shards         int64  `json:"shards" prom:"worker_shards_total counter" help:"Shard dispatches sent to each worker."`
	CellsAssigned  int64  `json:"cells_assigned" prom:"worker_cells_assigned_total counter" help:"Cells assigned to each worker (including re-routed ones)."`
	CellsCompleted int64  `json:"cells_completed" prom:"worker_cells_completed_total counter" help:"Cells each worker answered successfully."`
	CellErrors     int64  `json:"cell_errors" prom:"worker_cell_errors_total counter" help:"Cells each worker answered with a per-cell error."`
	Failures       int64  `json:"failures" prom:"worker_failures_total counter" help:"Transport failures per worker (connection, status, timeout)."`
	CellsRerouted  int64  `json:"cells_rerouted" prom:"worker_cells_rerouted_total counter" help:"Cells moved off each worker after its failure."`
	CellsAdopted   int64  `json:"cells_adopted" prom:"worker_cells_adopted_total counter" help:"Re-routed cells each worker took over from a failed peer."`
}

func (w *workerState) metrics() WorkerMetrics {
	return WorkerMetrics{
		URL:            w.url,
		Healthy:        w.healthy.Load(),
		Shards:         w.shards.Load(),
		CellsAssigned:  w.cells.Load(),
		CellsCompleted: w.completed.Load(),
		CellErrors:     w.cellErrs.Load(),
		Failures:       w.failures.Load(),
		CellsRerouted:  w.rerouted.Load(),
		CellsAdopted:   w.adopted.Load(),
	}
}

// pool owns the worker set: the shared HTTP client, the background health
// checker, and the liveness view the ring consults when planning shards.
// Workers start healthy (optimistic, so the first request after boot is
// not rejected while probes are still in flight); a transport failure
// marks a worker down immediately, and only a successful health probe
// brings it back.
type pool struct {
	workers []*workerState
	byURL   map[string]*workerState
	client  *http.Client

	interval time.Duration
	stop     chan struct{}
	wg       sync.WaitGroup
}

// newPool takes the canonicalized, deduplicated URL list cluster.New
// builds (the same list the ring is keyed on, so liveness lookups and
// routing can never disagree on a worker's name).
func newPool(urls []string, client *http.Client, interval time.Duration) *pool {
	p := &pool{
		byURL:    make(map[string]*workerState, len(urls)),
		client:   client,
		interval: interval,
		stop:     make(chan struct{}),
	}
	for _, u := range urls {
		w := &workerState{url: u}
		w.healthy.Store(true)
		p.workers = append(p.workers, w)
		p.byURL[u] = w
	}
	p.wg.Add(1)
	go p.healthLoop()
	return p
}

func (p *pool) close() {
	close(p.stop)
	p.wg.Wait()
}

// healthLoop probes every worker immediately at startup and then each
// interval. Probes are short so one wedged worker cannot stall the view
// of the others.
func (p *pool) healthLoop() {
	defer p.wg.Done()
	p.probeAll()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *pool) probeAll() {
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			p.probe(w)
		}(w)
	}
	wg.Wait()
}

func (p *pool) probe(w *workerState) {
	ctx, cancel := context.WithTimeout(context.Background(), p.interval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", w.url+"/healthz", nil)
	if err != nil {
		w.healthy.Store(false)
		return
	}
	resp, err := p.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		resp.Body.Close()
	}
	w.healthy.Store(ok)
}

// markDown records a transport failure: the worker is excluded from
// routing until a health probe succeeds again.
func (w *workerState) markDown() {
	w.failures.Add(1)
	w.healthy.Store(false)
}

// unhealthy is the ring exclusion predicate.
func (p *pool) unhealthy(url string) bool {
	w, ok := p.byURL[url]
	return !ok || !w.healthy.Load()
}

// healthyCount reports how many workers are currently routable.
func (p *pool) healthyCount() int {
	n := 0
	for _, w := range p.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

func (p *pool) metrics() []WorkerMetrics {
	out := make([]WorkerMetrics, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.metrics()
	}
	return out
}
