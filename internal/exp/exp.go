// Package exp is the experiment harness: one function per table or figure
// in the paper's evaluation, each returning typed rows that the
// cmd/paperfigs tool renders and the repository's benchmarks re-measure.
//
// Every performance number is normalized against an oracle run of the
// identical workload schedule, so the RepeatCap/TileCap truncation knobs
// (which keep the big sweeps tractable, mirroring the paper's own
// "intractable simulation time" truncations in §II-C and §VI-C) cancel
// out of all reported ratios.
//
// EXPERIMENTS.md indexes every figure (paper reproductions plus the
// beyond-the-paper transformer studies); docs/ARCHITECTURE.md documents
// the sweep engine's worker model, snapshot sharing, and determinism
// guarantee.
package exp

import (
	"sync"

	"neummu/internal/core"
	"neummu/internal/counters"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/sim"
	"neummu/internal/systolic"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// Options tunes harness effort.
type Options struct {
	// Models lists paper aliases to evaluate (default: the full dense
	// suite CNN-1..RNN-3).
	Models []string
	// Batches lists batch sizes (default 1, 4, 8 as in the paper).
	Batches []int
	// Effort is the simulation effort: mode (exact/sampled/quick), caps
	// and sampling CI target. Quick mode also
	// shrinks the default grid: CNN-1 and RNN-1 only, batch 4, caps 2/6.
	// Zero caps take the mode's defaults (3/0, or 2/6 in quick mode).
	Effort Effort
	// RepeatCap / TileCap read out the normalized Effort caps on
	// Harness.Options. They are not inputs: New panics when a caller sets
	// them to anything but the normalized caps.
	RepeatCap int
	TileCap   int
	// Workers bounds the sweep engine's host-side parallelism: how many
	// independent simulations run at once. 0 selects GOMAXPROCS; 1 forces
	// serial execution. Row ordering and values are identical at every
	// setting — the knob trades wall-clock time only.
	Workers int
	// Remote, when set, delegates Sweep and SweepPoints evaluation to an
	// external backend — in practice a neuserve cluster coordinator (see
	// internal/cluster and neummu.RemoteSweep) — instead of simulating
	// in-process. Rows keep their deterministic grid order and values,
	// but carry only the headline metrics (Cycles, Translations,
	// normalized perf): studies that read deeper per-component stats
	// (e.g. the Fig12b energy model) must run locally. Methods other
	// than Sweep/SweepPoints always simulate in-process.
	Remote RemoteFunc
	// OnResult, when non-nil, observes every in-process npu simulation the
	// harness runs — sweeps, figure studies, memoized oracle baselines (on
	// first build) — after it completes. The invariants suite hangs its
	// counter auditor here. Called from worker-pool goroutines, so the
	// hook must be safe for concurrent use.
	OnResult func(res *npu.Result)
}

// RemoteFunc evaluates an explicit point list on a remote backend,
// returning one cell per point in input order. opts carries the
// normalized Effort that shapes every cell's schedule.
type RemoteFunc func(points []Point, opts Options) ([]RemoteCell, error)

// RemoteCell is the headline result of one remotely evaluated point —
// the scalar metrics the cluster wire protocol carries.
type RemoteCell struct {
	Cycles       int64
	Translations int64
	Perf         float64
	// Counters is the worker's audited counter bundle for the cell.
	Counters counters.Bundle
}

func (o Options) normalized() Options {
	if o.Effort.Sampled() && o.Effort.TargetCI == 0 {
		o.Effort.TargetCI = 0.05
	}
	if o.Effort.Quick() {
		if len(o.Models) == 0 {
			o.Models = []string{"CNN-1", "RNN-1"}
		}
		if len(o.Batches) == 0 {
			o.Batches = []int{4}
		}
		if o.Effort.RepeatCap == 0 {
			o.Effort.RepeatCap = 2
		}
		if o.Effort.TileCap == 0 {
			o.Effort.TileCap = 6
		}
	}
	if len(o.Models) == 0 {
		o.Models = []string{"CNN-1", "CNN-2", "CNN-3", "RNN-1", "RNN-2", "RNN-3"}
	}
	if len(o.Batches) == 0 {
		o.Batches = []int{1, 4, 8}
	}
	if o.Effort.RepeatCap == 0 {
		o.Effort.RepeatCap = 3
	}
	if (o.RepeatCap != 0 && o.RepeatCap != o.Effort.RepeatCap) ||
		(o.TileCap != 0 && o.TileCap != o.Effort.TileCap) {
		panic("exp: Options.RepeatCap/TileCap only read out the normalized caps; set Effort.RepeatCap/TileCap")
	}
	o.RepeatCap, o.TileCap = o.Effort.RepeatCap, o.Effort.TileCap
	return o
}

// memo is a build-once cache keyed by a comparable struct: the fast path
// is one mutex acquisition and a map probe (no string formatting, no
// per-lookup allocation), and concurrent callers needing the same key
// compute it exactly once without serializing unrelated builds.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCell[V]
}

type memoCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (c *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoCell[V])
	}
	cell, ok := c.m[k]
	if !ok {
		cell = &memoCell[V]{}
		c.m[k] = cell
	}
	c.mu.Unlock()
	cell.once.Do(func() { cell.v, cell.err = build() })
	return cell.v, cell.err
}

// planKey identifies a memoized workload plan; snapKey adds the page size
// that fixes its translation snapshot; oracleKey identifies a memoized
// oracle baseline run. All are comparable structs so cache lookups build
// no strings.
type planKey struct {
	model string
	batch int
}

type snapKey struct {
	model string
	batch int
	ps    vm.PageSize
}

type oracleKey = snapKey

// Harness runs simulations with memoized plans, shared translation
// snapshots, and memoized oracle baselines. All methods are safe for
// concurrent use: each cache entry is computed once under a per-key
// sync.Once and shared (plans and snapshots are read-only after
// building). Every grid-shaped figure, table, and sweep fans out over the
// harness's worker pool (see Options.Workers), so the caches are shared
// across workers rather than rebuilt per cell; the inherently sequential
// studies (the Fig14 trace and the iterative SteadyState/Oversubscription
// runs) execute inline and ignore the pool.
//
// Snapshot sharing is safe because the dense harness runs never mutate
// page tables (no fault handler is installed, so a fault is a bug, not a
// remap); the studies that do remap at runtime — the NUMA demand-paging
// and migration models in internal/numa — build their own private,
// unfrozen tables and never see these snapshots.
type Harness struct {
	opts Options
	pool *sim.WorkerPool

	plans  memo[planKey, *workloads.Plan]
	snaps  memo[snapKey, *vm.Snapshot]
	oracle memo[oracleKey, *npu.Result]
}

// New returns a harness with the given options.
func New(opts Options) *Harness {
	opts = opts.normalized()
	return &Harness{
		opts: opts,
		pool: sim.NewWorkerPool(opts.Workers),
	}
}

// Options returns the normalized options.
func (h *Harness) Options() Options { return h.opts }

func (h *Harness) plan(model string, batch int) (*workloads.Plan, error) {
	return h.plans.get(planKey{model, batch}, func() (*workloads.Plan, error) {
		m, err := workloads.ByName(model)
		if err != nil {
			return nil, err
		}
		return workloads.BuildPlan(m, batch, workloads.DefaultTiles())
	})
}

// translations returns the shared, frozen page-table snapshot for
// (model, batch, pageSize), building it on first use from the canonical
// memoized plan — the plan is fetched here rather than accepted as a
// parameter so a caller holding a modified plan cannot poison the cache
// under the canonical key.
func (h *Harness) translations(model string, batch int, ps vm.PageSize) (*vm.Snapshot, error) {
	return h.snaps.get(snapKey{model, batch, ps}, func() (*vm.Snapshot, error) {
		plan, err := h.plan(model, batch)
		if err != nil {
			return nil, err
		}
		return npu.BuildTranslations(plan, ps), nil
	})
}

func (h *Harness) npuConfig(mmu core.Config) npu.Config {
	return npu.Config{
		MMU:            mmu,
		Memory:         memsys.Baseline(),
		Compute:        systolic.Baseline(),
		RepeatCap:      h.opts.Effort.RepeatCap,
		TileCap:        h.opts.Effort.TileCap,
		Sampled:        h.opts.Effort.Sampled(),
		SampleTargetCI: h.opts.Effort.TargetCI,
	}
}

// Run executes one (model, batch, MMU config) simulation on the shared
// translation snapshot for its (model, batch, pageSize) key.
func (h *Harness) Run(model string, batch int, mmu core.Config) (*npu.Result, error) {
	plan, err := h.plan(model, batch)
	if err != nil {
		return nil, err
	}
	ps := mmu.PageSize
	if ps == 0 {
		ps = vm.Page4K
	}
	snap, err := h.translations(model, batch, ps)
	if err != nil {
		return nil, err
	}
	cfg := h.npuConfig(mmu)
	cfg.Translations = snap
	return h.runNPU(plan, cfg)
}

// runNPU executes one fully configured simulation and reports the result
// to the Options.OnResult observer. Every in-process npu simulation in
// this package funnels through it (Run and the figure functions that
// build bespoke configs alike), so an observer sees every study's runs.
func (h *Harness) runNPU(plan *workloads.Plan, cfg npu.Config) (*npu.Result, error) {
	res, err := npu.Run(plan, cfg)
	if err == nil && h.opts.OnResult != nil {
		h.opts.OnResult(res)
	}
	return res, err
}

// Oracle returns the memoized oracle run for (model, batch, pageSize); a
// zero page size means 4 KB, as in Run. The result is shared by every
// caller and must not be modified.
func (h *Harness) Oracle(model string, batch int, ps vm.PageSize) (*npu.Result, error) {
	if ps == 0 {
		ps = vm.Page4K
	}
	return h.oracle.get(oracleKey{model, batch, ps}, func() (*npu.Result, error) {
		return h.Run(model, batch, core.Config{Kind: core.Oracle, PageSize: ps})
	})
}

// NormPerf runs the configuration and returns its performance normalized
// to the oracle on the identical schedule. An oracle configuration is
// that baseline itself: it returns the memoized oracle run (shared, not
// to be modified) with perf 1, simulated once per key.
func (h *Harness) NormPerf(model string, batch int, mmu core.Config) (float64, *npu.Result, error) {
	if mmu.Kind == core.Oracle {
		oracle, err := h.Oracle(model, batch, mmu.PageSize)
		if err != nil {
			return 0, nil, err
		}
		return oracle.NormalizedPerf(oracle), oracle, nil
	}
	res, err := h.Run(model, batch, mmu)
	if err != nil {
		return 0, nil, err
	}
	oracle, err := h.Oracle(model, batch, mmu.PageSize)
	if err != nil {
		return 0, nil, err
	}
	return res.NormalizedPerf(oracle), res, nil
}

// customMMU builds a Custom MMU config for sweeps: baseline TLB plus the
// given walker shape.
func customMMU(ps vm.PageSize, ptws, prmb int, usePTS bool, path walker.PathKind, tlbEntries int) core.Config {
	t := tlb.Baseline(ps)
	if tlbEntries > 0 {
		t.Entries = tlbEntries
	}
	return core.Config{
		Kind:     core.Custom,
		PageSize: ps,
		TLB:      t,
		Walker: walker.Config{
			NumPTWs:       ptws,
			PRMBSlots:     prmb,
			UsePTS:        usePTS,
			LevelLatency:  100,
			Path:          path,
			PageSize:      ps,
			DrainPerCycle: true,
		},
	}
}

// NormPerfGrid evaluates one MMU configuration over the whole
// (model, batch) grid on the sweep engine's worker pool and returns rows
// in deterministic grid order. Simulations are independent (each builds
// its own page tables and event queue) so only the harness caches need
// locking.
func (h *Harness) NormPerfGrid(cfg core.Config) ([]NormPerfRow, []*npu.Result, error) {
	type cellResult struct {
		row NormPerfRow
		res *npu.Result
	}
	out, err := gridRows(h, func(model string, batch int) (cellResult, error) {
		perf, res, err := h.NormPerf(model, batch, cfg)
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{NormPerfRow{Model: model, Batch: batch, Perf: perf}, res}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]NormPerfRow, len(out))
	results := make([]*npu.Result, len(out))
	for i, c := range out {
		rows[i] = c.row
		results[i] = c.res
	}
	return rows, results, nil
}
