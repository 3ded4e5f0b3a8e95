// Package npu is the top-level NPU execution model: it runs a tiled
// workload plan (internal/workloads) through the DMA/MMU/memory pipeline
// (internal/dma, internal/core, internal/memsys) while overlapping each
// tile's compute phase with the next tile's memory phase, exactly as the
// paper's Figure 3 describes.
//
// Double-buffering semantics: tile n's compute phase may start once its
// memory phase ends; tile n+1's memory phase starts as soon as the DMA is
// free; tile n+2's memory phase additionally waits for tile n's compute
// phase to release its scratchpad buffer.
package npu

import (
	"fmt"

	"neummu/internal/core"
	"neummu/internal/counters"
	"neummu/internal/dma"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/stats"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// noop advances simulated time without doing work: each run registers
// it once and schedules it for the double-buffering waits.
var noop = sim.HandlerFunc(func(sim.Cycle, int64) {})

// ComputeModel abstracts the compute-phase timing model so the systolic
// baseline (§II-C) and the spatial alternative (§VI-B) plug in
// interchangeably.
type ComputeModel interface {
	// TileCycles returns the compute-phase duration of an M×K×N GEMM tile.
	TileCycles(m, k, n int64) int64
	// Name identifies the model in reports.
	Name() string
}

// Config describes one NPU simulation.
type Config struct {
	MMU     core.Config
	Memory  memsys.Config
	Compute ComputeModel
	// RepeatCap bounds how many instances of a repeated layer (RNN
	// timesteps, repeated residual blocks) are simulated; 0 simulates all.
	// Results are normalized against an oracle run of the *same truncated
	// schedule*, so ratios are unaffected (see EXPERIMENTS.md).
	RepeatCap int
	// TileCap bounds tiles simulated per layer instance; 0 simulates all.
	TileCap int
	// Timeline, when positive, records translation issues per window of
	// that many cycles (Fig 7).
	TimelineWindow int64
	// TraceVAs, when non-nil, receives every translated VA (Fig 14).
	TraceVAs func(va vm.VirtAddr, now sim.Cycle)
	// Watch narrows per-tile watched statistics to one VA region (see
	// dma.Engine.Watch); the KV-cache studies point it at a decoder's KV
	// region.
	Watch *vm.Region
	// TileTrace, when non-nil, receives each retiring tile's layer name,
	// decode step (workloads.Tile.Step; 0 outside autoregressive
	// attention) and fetch statistics, in schedule order.
	TileTrace func(layer string, step int, ts dma.TileStats)
	// Translations, when non-nil, supplies the pre-built, frozen page
	// tables for the plan at this page size (see BuildTranslations). The
	// mapping for a (plan, page size) pair is deterministic and read-only
	// during dense runs, so the experiment harness builds it once per key
	// and shares the snapshot across every sweep cell — concurrent ones
	// included — instead of rebuilding identical tables per simulation.
	// Nil builds a private table (runs that fault or remap need one).
	Translations *vm.Snapshot

	// IntraCellWorkers, when positive, selects the epoch-structured
	// engine (see epoch.go): the tile schedule is partitioned at natural
	// barriers (per weight/KV block for encoders, per decode step for KV
	// streaming) and each epoch runs on its own event queue seeded from
	// the shared frozen translation snapshot, up to IntraCellWorkers
	// epochs concurrently. The merged result is byte-identical for every
	// worker count ≥ 1 but is a distinct, explicitly keyed schedule
	// semantics from the monolithic engine (epochs start cold: TLB and
	// path-cache state does not cross epoch boundaries). Runs carrying
	// observers (Timeline/TraceVAs/Watch/TileTrace) always use the
	// monolithic engine regardless of this knob.
	IntraCellWorkers int
	// Sampled selects statistical simulation: only a seeded subset of
	// epochs is simulated (stratified per layer) and totals are scaled up
	// by per-stratum estimators, with a 95% confidence interval reported
	// in Result.Sampled. Sampled runs imply the epoch engine.
	Sampled bool
	// SampleTargetCI is the desired relative half-width of the sampled
	// cycle estimate's 95% CI; it sizes the sampling fraction (0 = 0.05).
	SampleTargetCI float64
	// SampleSeed overrides the derived sampling seed (0 = derive from
	// model, batch, caps and target CI — deliberately excluding the MMU
	// kind, so an oracle normalization run samples exactly the same
	// epochs as its candidate and the performance ratio stays paired).
	SampleSeed uint64
}

// observed reports whether any per-event observer is attached; observer
// studies require the monolithic engine's single global timeline.
func (c Config) observed() bool {
	return c.TimelineWindow > 0 || c.TraceVAs != nil || c.Watch != nil || c.TileTrace != nil
}

// Result summarizes one simulation.
type Result struct {
	Model   string
	Batch   int
	Compute string
	MMUKind core.Kind

	// Cycles is the end-to-end execution time: the later of the last
	// memory phase and the last compute phase.
	Cycles sim.Cycle
	// MemPhaseCycles sums the tile memory phases; ComputeCycles sums the
	// tile compute phases (they overlap, so the sums exceed Cycles).
	MemPhaseCycles sim.Cycle
	ComputeCycles  sim.Cycle
	StallCycles    sim.Cycle

	Tiles          int
	Translations   int64
	BytesFetched   int64
	PageDivergence stats.Dist

	MMU    core.Stats
	TLB    tlb.Stats
	Walker walker.Stats
	Path   walker.PathStats
	Memory memsys.Stats

	// Counters is the audited counter bundle: the stats above flattened
	// into the standard record that travels through serve/cluster rows and
	// that the invariants suite cross-checks (see internal/counters).
	Counters counters.Bundle

	// Sampled carries the sampling audit of a sampled-mode run — epoch
	// population, simulated subset, seed and the achieved confidence
	// interval; nil for exact runs.
	Sampled *SampleStats

	Timeline *stats.TimeSeries
}

// Overhead returns this result's performance overhead relative to an
// oracle run: cycles/oracle - 1.
func (r *Result) Overhead(oracle *Result) float64 {
	if oracle.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles)/float64(oracle.Cycles) - 1
}

// NormalizedPerf returns oracle.Cycles / r.Cycles, the paper's
// "performance normalized to an oracular MMU" metric.
func (r *Result) NormalizedPerf(oracle *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(oracle.Cycles) / float64(r.Cycles)
}

// BuildTranslations backs every tensor region of the plan with physical
// frames and returns the frozen page-table snapshot. The construction is
// deterministic — frames are handed out in region order — so a snapshot
// built once can stand in for the tables any simulation of (plan, ps)
// would have built privately.
func BuildTranslations(plan *workloads.Plan, ps vm.PageSize) *vm.Snapshot {
	pt := vm.NewPageTable()
	var footprint uint64
	for _, r := range plan.Space.Regions() {
		footprint += r.Size + ps.Bytes()
	}
	fa := vm.NewFrameAllocator(footprint+ps.Bytes(), ps, 0)
	for _, r := range plan.Space.Regions() {
		vm.MapRegion(pt, fa, r, ps)
	}
	return pt.Freeze()
}

// Run executes the plan on a fresh NPU instance described by cfg.
func Run(plan *workloads.Plan, cfg Config) (*Result, error) {
	if cfg.Compute == nil {
		return nil, fmt.Errorf("npu: no compute model configured")
	}
	ps := cfg.MMU.PageSize
	if ps == 0 {
		ps = vm.Page4K
		cfg.MMU.PageSize = ps
	}
	if (cfg.IntraCellWorkers > 0 || cfg.Sampled) && !cfg.observed() {
		return runEpoched(plan, cfg)
	}

	snap := cfg.Translations
	if snap == nil {
		snap = BuildTranslations(plan, ps)
	}
	pt := snap.Table()

	q := &sim.Queue{}
	mmu := core.New(cfg.MMU, pt, q)
	mem := memsys.New(cfg.Memory, q)
	eng := dma.New(q, mmu, mem)
	wait := q.Register(noop)
	if cfg.TimelineWindow > 0 {
		eng.Timeline = stats.NewTimeSeries(cfg.TimelineWindow)
	}
	eng.VATrace = cfg.TraceVAs
	eng.Watch = cfg.Watch

	res := &Result{
		Model:   plan.Model,
		Batch:   plan.Batch,
		Compute: cfg.Compute.Name(),
		MMUKind: cfg.MMU.Kind,
	}

	// The tile count is fixed by the plan and the caps, so the
	// per-tile accumulators are sized once up front instead of growing
	// through reallocation over a long RNN run.
	totalTiles := 0
	for _, layer := range plan.Layers {
		times := layer.Times()
		if cfg.RepeatCap > 0 && times > cfg.RepeatCap {
			times = cfg.RepeatCap
		}
		nt := len(layer.Tiles)
		if cfg.TileCap > 0 && nt > cfg.TileCap {
			nt = cfg.TileCap
		}
		totalTiles += times * nt
	}
	if eng.Timeline != nil {
		// One bucket per issue burst is a safe floor for the series.
		eng.Timeline.Grow(totalTiles)
	}

	// computeDone[i] is when tile i's compute phase retires; the DMA may
	// not start tile i+2's memory phase before computeDone[i] (its SPM
	// buffer is still feeding the array until then).
	computeDone := make([]sim.Cycle, 0, totalTiles)
	tileIndex := 0

	runTile := func(layerName string, t workloads.Tile) error {
		// Buffer dependency: wait for tile (index-2)'s compute phase.
		if tileIndex >= 2 {
			if ready := computeDone[tileIndex-2]; ready > q.Now() {
				q.Call(ready, wait, 0)
				q.Run()
			}
		}
		var ts dma.TileStats
		fetched := false
		eng.FetchViews(t.Views, func(s dma.TileStats) { ts, fetched = s, true })
		q.Run()
		if !fetched {
			return fmt.Errorf("npu: tile fetch deadlocked (model %s)", plan.Model)
		}
		res.MemPhaseCycles += ts.Duration()
		res.StallCycles += ts.StallCycles
		res.Translations += int64(ts.Transactions)
		res.BytesFetched += ts.Bytes
		if cfg.TileTrace != nil {
			cfg.TileTrace(layerName, t.Step, ts)
		}

		cc := sim.Cycle(cfg.Compute.TileCycles(t.M, t.K, t.N))
		res.ComputeCycles += cc
		start := ts.End
		if tileIndex >= 1 && computeDone[tileIndex-1] > start {
			start = computeDone[tileIndex-1]
		}
		computeDone = append(computeDone, start+cc)
		tileIndex++
		return nil
	}

	for _, layer := range plan.Layers {
		times := layer.Times()
		if cfg.RepeatCap > 0 && times > cfg.RepeatCap {
			times = cfg.RepeatCap
		}
		tiles := layer.Tiles
		if cfg.TileCap > 0 && len(tiles) > cfg.TileCap {
			tiles = tiles[:cfg.TileCap]
		}
		for rep := 0; rep < times; rep++ {
			for _, t := range tiles {
				if err := runTile(layer.Name, t); err != nil {
					return nil, err
				}
			}
		}
	}

	res.Cycles = q.Now()
	if n := len(computeDone); n > 0 && computeDone[n-1] > res.Cycles {
		res.Cycles = computeDone[n-1]
	}
	res.Tiles = tileIndex
	res.PageDivergence = eng.PageDivergence()
	res.MMU = mmu.Stats()
	res.TLB = mmu.TLBStats()
	res.Walker = mmu.WalkerStats()
	res.Path = mmu.PathStats()
	res.Memory = mem.Stats()
	res.Counters = counters.Collect(counters.Sources{
		MMU:    res.MMU,
		TLB:    res.TLB,
		Walker: res.Walker,
		Path:   res.Path,
		Memory: res.Memory,
		DMA: counters.DMAStats{
			Tiles:         int64(eng.Tiles()),
			Segments:      eng.Segments(),
			Transactions:  eng.Transactions(),
			Bytes:         eng.Bytes(),
			DistinctPages: eng.DistinctPages(),
		},
		Cycles: counters.CycleStats{
			Total:    int64(res.Cycles),
			MemPhase: int64(res.MemPhaseCycles),
			Compute:  int64(res.ComputeCycles),
			Stall:    int64(res.StallCycles),
		},
	})
	res.Timeline = eng.Timeline
	return res, nil
}

// RunModel is the convenience entry point: it plans the model at the given
// batch size with default tiling and runs it.
func RunModel(m workloads.Model, batch int, cfg Config) (*Result, error) {
	plan, err := workloads.BuildPlan(m, batch, workloads.DefaultTiles())
	if err != nil {
		return nil, err
	}
	return Run(plan, cfg)
}
