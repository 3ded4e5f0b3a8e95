package exp

import (
	"fmt"

	"neummu/internal/core"
	"neummu/internal/npu"
	"neummu/internal/sim"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// This file is the design-space sweep engine. A sweep is a cartesian
// product of axes (MMU kind × page size × model × batch × walker knobs)
// expanded into Points, evaluated concurrently over the harness's
// sim.WorkerPool, and returned as typed rows in grid order — the order is
// a pure function of the axes, never of goroutine completion. All
// grid-shaped figure and table functions in this package run on this
// engine (the Fig14 trace and the iterative SteadyState/Oversubscription
// studies are sequential by nature and run inline), and callers can
// phrase their own studies the same way through Harness.Sweep (re-exported
// as neummu.Sweep).
//
// Workers share the harness's memoized plan and oracle caches: the first
// point needing a (model, batch) plan or an oracle baseline builds it
// under a per-key lock, every later point reuses it, so a parallel sweep
// does strictly less total work than the serial runs it replaces.

// Axes declares the cartesian design space of a sweep. Empty axes take
// defaults; set only the ones being studied.
//
// The walker-shape axes (PTWs, PRMBSlots, PTS, Paths) apply to
// core.Custom points only — for the named kinds the walker is part of the
// kind's definition, so those axes collapse to a single representative
// value instead of emitting duplicate points. TLBEntries applies to every
// kind except core.Oracle (which has no TLB); 0 keeps the kind's baseline
// capacity.
type Axes struct {
	// Kinds lists MMU architectures (default: core.NeuMMU).
	Kinds []core.Kind
	// PageSizes lists page granularities (default: vm.Page4K).
	PageSizes []vm.PageSize
	// Models and Batches default to the harness's configured grid.
	Models  []string
	Batches []int
	// PTWs is the page-table-walker count axis (default: 128).
	PTWs []int
	// PRMBSlots is the mergeable-slot axis (default: 32).
	PRMBSlots []int
	// PTS toggles the pending-translation scoreboard (default: true).
	PTS []bool
	// Paths lists translation-path caching schemes (default: TPreg).
	Paths []walker.PathKind
	// TLBEntries overrides TLB capacity; 0 keeps the kind baseline
	// (default: 0).
	TLBEntries []int
}

func (ax Axes) normalized(opts Options) Axes {
	if len(ax.Kinds) == 0 {
		ax.Kinds = []core.Kind{core.NeuMMU}
	}
	if len(ax.PageSizes) == 0 {
		ax.PageSizes = []vm.PageSize{vm.Page4K}
	}
	if len(ax.Models) == 0 {
		ax.Models = opts.Models
	}
	if len(ax.Batches) == 0 {
		ax.Batches = opts.Batches
	}
	if len(ax.PTWs) == 0 {
		ax.PTWs = []int{128}
	}
	if len(ax.PRMBSlots) == 0 {
		ax.PRMBSlots = []int{32}
	}
	if len(ax.PTS) == 0 {
		ax.PTS = []bool{true}
	}
	if len(ax.Paths) == 0 {
		ax.Paths = []walker.PathKind{walker.PathTPreg}
	}
	if len(ax.TLBEntries) == 0 {
		ax.TLBEntries = []int{0}
	}
	return ax
}

// points expands the axes into the cartesian grid. Iteration order, outer
// to inner: Kind, PageSize, TLBEntries, PTWs, PRMBSlots, PTS, Path,
// Model, Batch — so a single-knob sweep yields rows grouped by the swept
// value with the (model, batch) suite contiguous under each, matching the
// paper figures' layout.
func (ax Axes) points(opts Options) []Point {
	ax = ax.normalized(opts)
	var pts []Point
	for _, kind := range ax.Kinds {
		tlbs, ptws, prmbs, ptss, paths := ax.TLBEntries, ax.PTWs, ax.PRMBSlots, ax.PTS, ax.Paths
		if kind != core.Custom {
			// Walker shape is fixed by the kind; collapse those axes.
			ptws, prmbs, ptss, paths = []int{0}, []int{0}, []bool{false}, []walker.PathKind{walker.PathNone}
			if kind == core.Oracle {
				tlbs = []int{0} // the oracle has no TLB to resize
			}
		}
		for _, ps := range ax.PageSizes {
			for _, entries := range tlbs {
				for _, nptw := range ptws {
					for _, slots := range prmbs {
						for _, pts2 := range ptss {
							for _, path := range paths {
								for _, m := range ax.Models {
									for _, b := range ax.Batches {
										pts = append(pts, Point{
											Kind: kind, PageSize: ps, Model: m, Batch: b,
											PTWs: nptw, PRMBSlots: slots, PTS: pts2,
											Path: path, TLBEntries: entries,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// Point is one cell of a sweep grid: a full (workload, MMU) design point.
type Point struct {
	Kind     core.Kind
	PageSize vm.PageSize
	Model    string
	Batch    int
	// Walker shape, meaningful for core.Custom points (zero elsewhere).
	PTWs      int
	PRMBSlots int
	PTS       bool
	Path      walker.PathKind
	// TLBEntries overrides the TLB capacity; 0 keeps the kind baseline.
	TLBEntries int
}

// MMU materializes the point's translation architecture: the kind's
// preset, with a Custom point's walker shape and any TLB capacity
// override (which the oracle, having no TLB, ignores). It is the one
// place a design point becomes a core.Config.
func (p Point) MMU() core.Config {
	cfg := core.ConfigFor(p.Kind, p.PageSize)
	if p.Kind == core.Custom {
		cfg.Walker = walker.Config{
			NumPTWs: p.PTWs, PRMBSlots: p.PRMBSlots, UsePTS: p.PTS,
			LevelLatency: 100, Path: p.Path, PageSize: p.PageSize,
		}
	}
	if p.TLBEntries > 0 {
		cfg.TLB.Entries = p.TLBEntries
	}
	return cfg
}

// Label renders the point compactly for logs and error messages.
func (p Point) Label() string {
	s := fmt.Sprintf("%s/%s/%s/b%02d", p.Kind, p.PageSize, p.Model, p.Batch)
	if p.Kind == core.Custom {
		s += fmt.Sprintf("/ptw%d/prmb%d", p.PTWs, p.PRMBSlots)
		if p.PTS {
			s += "/pts"
		}
		if p.Path != walker.PathNone {
			s += "/" + p.Path.String()
		}
	}
	if p.TLBEntries > 0 {
		s += fmt.Sprintf("/tlb%d", p.TLBEntries)
	}
	return s
}

// SweepResult is one evaluated sweep point.
type SweepResult struct {
	Point Point
	// Perf is performance normalized to the oracle MMU on the identical
	// schedule and page size (1.0 = translation adds zero cycles).
	Perf float64
	// Result is the full simulation output for deeper metrics.
	Result *npu.Result
}

// Sweep expands the axes and evaluates every design point on the worker
// pool, returning rows in grid order regardless of completion order. See
// Axes for defaulting rules and Options.Workers for the parallelism knob.
func (h *Harness) Sweep(ax Axes) ([]SweepResult, error) {
	return h.SweepPoints(ax.points(h.opts))
}

// Points expands the axes into their cartesian grid under the harness's
// configured defaults, in the deterministic grid order Sweep evaluates.
// It is the request→cell expansion step of the serving layer
// (internal/serve), which schedules each point itself so overlapping
// requests can share per-cell cache entries, then reassembles rows in
// exactly this order.
func (h *Harness) Points(ax Axes) []Point { return ax.points(h.opts) }

// SweepPoints evaluates an explicit point list — for non-cartesian spaces
// such as Figure 12b's constant-product [PRMB, PTW] frontier — returning
// results in input order. With Options.Remote set, evaluation is
// delegated to the remote backend (a cluster coordinator) and the rows
// carry headline metrics only; see Options.Remote.
func (h *Harness) SweepPoints(points []Point) ([]SweepResult, error) {
	if h.opts.Remote != nil {
		return h.sweepRemote(points)
	}
	return runGrid(h, len(points), func(i int) (SweepResult, error) {
		p := points[i]
		perf, res, err := h.NormPerf(p.Model, p.Batch, p.MMU())
		if err != nil {
			return SweepResult{}, fmt.Errorf("%s: %w", p.Label(), err)
		}
		return SweepResult{Point: p, Perf: perf, Result: res}, nil
	})
}

// sweepRemote evaluates the point list through Options.Remote. The
// synthesized npu.Result carries exactly the wire scalars (plus the
// point's identity), so downstream code reading Cycles, Translations, or
// NormalizedPerf-derived values sees the worker's numbers verbatim.
func (h *Harness) sweepRemote(points []Point) ([]SweepResult, error) {
	cells, err := h.opts.Remote(points, h.opts)
	if err != nil {
		return nil, err
	}
	if len(cells) != len(points) {
		return nil, fmt.Errorf("remote sweep returned %d cells for %d points", len(cells), len(points))
	}
	out := make([]SweepResult, len(points))
	for i, c := range cells {
		p := points[i]
		out[i] = SweepResult{
			Point: p,
			Perf:  c.Perf,
			Result: &npu.Result{
				Model: p.Model, Batch: p.Batch, MMUKind: p.Kind,
				Cycles: sim.Cycle(c.Cycles), Translations: c.Translations,
				Counters: c.Counters,
			},
		}
	}
	return out, nil
}

// runGrid is the engine core: evaluate eval(0..n-1) on the harness's
// worker pool, writing each result into its own slot so the returned
// slice is in index order no matter how the scheduler interleaves
// workers. On failure the lowest-indexed error is returned (the pool's
// contract), keeping error reporting deterministic too.
func runGrid[R any](h *Harness, n int, eval func(i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	err := h.pool.Do(n, func(i int) error {
		r, err := eval(i)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gridCell is one (model, batch) coordinate of the harness's suite grid.
type gridCell struct {
	model string
	batch int
}

func (h *Harness) gridCells() []gridCell {
	var cells []gridCell
	for _, m := range h.opts.Models {
		for _, b := range h.opts.Batches {
			cells = append(cells, gridCell{m, b})
		}
	}
	return cells
}

// gridRows evaluates fn over the configured (model, batch) grid on the
// worker pool and returns the rows in grid order. It is the engine-backed
// replacement for the serial for-loops the figure functions grew up on:
// fn must be self-contained (no shared mutable state) because cells run
// concurrently.
func gridRows[R any](h *Harness, fn func(model string, batch int) (R, error)) ([]R, error) {
	cells := h.gridCells()
	return runGrid(h, len(cells), func(i int) (R, error) {
		r, err := fn(cells[i].model, cells[i].batch)
		if err != nil {
			var zero R
			return zero, fmt.Errorf("%s b%02d: %w", cells[i].model, cells[i].batch, err)
		}
		return r, nil
	})
}
