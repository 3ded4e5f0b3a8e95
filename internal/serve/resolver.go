package serve

import (
	"context"
	"fmt"
	"time"

	"neummu/internal/exp"
	"neummu/internal/trace"
)

// Resolver is the seam between the front end and a deployment role. The
// front end decodes, validates and expands a request, then asks its
// Resolver for the cells; everything it writes back is rendered the same
// way for every role. New installs the local resolver below. The cluster
// coordinator's resolver dispatches cells across a worker fleet.
type Resolver interface {
	// Resolve admits one request's points and returns a pending cell per
	// point, in point order, plus how many were answered at admission
	// (the RAM cache locally, the coordinator's store remotely). An error
	// fails the whole request before anything is written.
	Resolve(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point) (cells []Pending, hits int, err error)
	// Metrics returns the role's /metrics snapshot, a struct the front
	// end encodes as JSON or renders with trace.WriteMetrics, and the
	// prefix of its Prometheus family names.
	Metrics(RequestStats) (m any, promPrefix string)
}

// Pending is one admitted cell.
type Pending interface {
	// Wait blocks until the cell resolves and returns its value and
	// whether it was answered without new work. A resolver that can stop
	// waiting when ctx ends returns ctx's error then.
	Wait(ctx context.Context) (v CellValue, hit bool, err error)
	// Ready reports whether Wait would return without blocking. A
	// streaming handler flushes what it has written before it waits on a
	// cell that is not ready, and not otherwise.
	Ready() bool
}

// local is the resolver New installs: the RAM cache, then the store,
// then a simulation on the scheduler.
type local struct{ s *Server }

func (l local) Metrics(rs RequestStats) (any, string) { return l.s.snapshot(rs), "neuserve_" }

// localCell is one cell pending on the local resolver: its flight plus
// the per-stage durations it collects on the way through the cache, the
// scheduler queue, the disk tier and the simulator — the raw material of
// its trace.Span. The miss-owner fields (queueNS, diskNS, computeNS,
// diskHit) are written inside the compute closure, which happens-before
// the flight's done channel closes, so Wait reading them needs no
// atomics.
type localCell struct {
	tracer  *trace.Tracer
	fl      *Flight[CellValue]
	traceID string
	i       int
	p       *exp.Point // the caller's points[i]

	start     time.Time
	cacheNS   int64 // the Resolve call itself: lookup + scheduler admission
	queueNS   int64 // submit → dequeue (the scheduler queue wait)
	diskNS    int64 // durable-tier read on a RAM miss (0 with no store)
	computeNS int64 // the simulation itself
	diskHit   bool  // the durable tier answered; nothing was simulated
	scheduled bool  // this request owned the compute (cache miss)
}

// Wait blocks on the cell's flight and records the cell's span. It
// ignores ctx: a queued flight that every waiter abandoned resolves with
// context.Canceled at dequeue (see Cache.Resolve). The time spent here
// is the only wait a request that joined another request's in-flight
// computation saw, so it is booked as that cell's queue stage. The span's
// total is the sum of its stages, so per-stage durations always account
// for the whole span.
func (c *localCell) Wait(context.Context) (CellValue, bool, error) {
	tw := time.Now()
	v, err := c.fl.Wait()
	var st trace.Stages
	st[trace.StageCache] = c.cacheNS
	switch {
	case c.fl.Hit:
		// RAM hit: the lookup was the whole cell.
	case c.scheduled:
		st[trace.StageQueue] = c.queueNS
		st[trace.StageDisk] = c.diskNS
		st[trace.StageCompute] = c.computeNS
	default:
		// Joined another request's in-flight computation: its owner's span
		// carries the disk/compute split; this request only waited.
		st[trace.StageQueue] = int64(time.Since(tw))
	}
	sp := trace.Span{
		TraceID: c.traceID, Kind: "cell", Name: c.p.Label(), Index: c.i,
		Start: c.start, TotalNS: st.Sum(), Stages: st,
		Hit: c.fl.Hit, DiskHit: c.diskHit,
	}
	if err != nil {
		sp.Err = err.Error()
	} else if c.scheduled && !c.diskHit {
		bundle := v.Counters
		sp.Counters = &bundle
	}
	c.tracer.Record(sp)
	return v, c.fl.Hit, err
}

// Ready implements Pending.
func (c *localCell) Ready() bool {
	select {
	case <-c.fl.done:
		return true
	default:
		return false
	}
}

// Resolve schedules every point through the cell cache, deduplicating
// against cached, in-flight, and same-request work, and returns the cells
// in grid order. hits counts cells answered straight from cache. ctx is
// the requesting client's context: a cell still queued when every client
// interested in it disconnects is dropped at dequeue, never simulated
// (see Cache.Resolve).
func (l local) Resolve(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point) ([]Pending, int, error) {
	s := l.s
	opts := h.Options()
	cells := make([]Pending, len(points))
	hits := 0
	for i, p := range points {
		key := newCellKey(opts, p)
		c := &localCell{tracer: s.tracer, traceID: traceID, i: i, p: &points[i], start: time.Now()}
		fl, err := s.cells.Resolve(ctx, key,
			func(run func()) error {
				c.scheduled = true
				submitted := time.Now()
				return s.sched.Submit(func() {
					c.queueNS = int64(time.Since(submitted))
					run()
				})
			},
			func() (CellValue, error) {
				// RAM miss: the durable tier answers before a simulation is
				// spent. Disk hits bypass the simulated counter and the
				// counter aggregate — both book only work this process did.
				if s.cfg.Store != nil {
					t0 := time.Now()
					v, ok := loadCell(s.cfg.Store, key)
					c.diskNS = int64(time.Since(t0))
					if ok {
						c.diskHit = true
						return v, nil
					}
				}
				s.metrics.simulated.Add(1)
				t0 := time.Now()
				perf, res, err := h.NormPerf(p.Model, p.Batch, p.MMU())
				c.computeNS = int64(time.Since(t0))
				if err != nil {
					return CellValue{}, fmt.Errorf("%s: %w", p.Label(), err)
				}
				s.metrics.addCounters(res.Counters)
				v := CellValue{
					Cycles:       int64(res.Cycles),
					Translations: res.Translations,
					Perf:         perf,
					Counters:     res.Counters,
				}
				saveCell(s.cfg.Store, key, v)
				return v, nil
			})
		c.cacheNS = int64(time.Since(c.start))
		if err != nil {
			return nil, 0, err
		}
		if fl.Hit {
			hits++
		}
		c.fl = fl
		cells[i] = c
	}
	return cells, hits, nil
}
