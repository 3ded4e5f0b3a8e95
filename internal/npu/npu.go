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
//
// There is one simulation engine: a machine (queue, MMU, memory, DMA
// engine and the double-buffer waits) that runs the capped schedule in
// order, so TLB, path-cache, memory and double-buffer state carry from
// each tile to the next. Every run is that serial schedule.
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

// noop advances simulated time without doing work: each machine
// registers it once and schedules it for the double-buffering waits.
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
	// Events is the host-side cost of the run in queue events fired
	// (sim.Queue.Fired). It is a measure of the simulator, not of the
	// simulated NPU, and travels in no row.
	Events int64

	MMU    core.Stats
	TLB    tlb.Stats
	Walker walker.Stats
	Path   walker.PathStats
	Memory memsys.Stats

	// Counters is the audited counter bundle: the stats above flattened
	// into the standard record that travels through serve/cluster rows and
	// that the invariants suite cross-checks (see internal/counters).
	Counters counters.Bundle

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
	if cfg.MMU.PageSize == 0 {
		cfg.MMU.PageSize = vm.Page4K
	}
	snap := cfg.Translations
	if snap == nil {
		snap = BuildTranslations(plan, cfg.MMU.PageSize)
	}
	m := newMachine(plan, cfg, snap)
	if err := m.run(); err != nil {
		return nil, err
	}
	return m.result(), nil
}

// machine is one simulated NPU: an event queue, MMU, memory and DMA
// engine, plus the compute-done times of the last two tiles it ran,
// which the double-buffer waits read, and the run's phase totals.
type machine struct {
	plan *workloads.Plan
	cfg  Config
	q    *sim.Queue
	mmu  *core.MMU
	mem  *memsys.Memory
	eng  *dma.Engine
	wait sim.HandlerID

	// done1 and done2 are when the last and the second-to-last tile's
	// compute phases retire. The next tile's compute phase starts no
	// earlier than done1, and its memory phase no earlier than done2:
	// until then that tile's SPM buffer is still feeding the array.
	done1, done2 sim.Cycle

	ts      dma.TileStats // the last fetch's statistics, set by onFetch
	fetched bool
	onFetch func(dma.TileStats)

	memPhase, compute, stall sim.Cycle
	translations, bytes      int64
	tiles                    int
}

// newMachine builds a fresh machine over the shared translation snapshot,
// with cfg's observers attached to its DMA engine.
func newMachine(plan *workloads.Plan, cfg Config, snap *vm.Snapshot) *machine {
	q := &sim.Queue{}
	mmu := core.New(cfg.MMU, snap.Table(), q)
	mem := memsys.New(cfg.Memory, q)
	m := &machine{
		plan: plan, cfg: cfg, q: q, mmu: mmu, mem: mem,
		eng:  dma.New(q, mmu, mem),
		wait: q.Register(noop),
	}
	m.onFetch = func(ts dma.TileStats) { m.ts, m.fetched = ts, true }
	if cfg.TimelineWindow > 0 {
		m.eng.Timeline = stats.NewTimeSeries(cfg.TimelineWindow)
	}
	m.eng.VATrace = cfg.TraceVAs
	m.eng.Watch = cfg.Watch
	return m
}

// run simulates the capped schedule in order: each layer's first
// TileCap tiles, repeated min(Times, RepeatCap) times.
func (m *machine) run() error {
	for li := range m.plan.Layers {
		layer := &m.plan.Layers[li]
		times := layer.Times()
		if m.cfg.RepeatCap > 0 && times > m.cfg.RepeatCap {
			times = m.cfg.RepeatCap
		}
		tiles := layer.Tiles
		if m.cfg.TileCap > 0 && len(tiles) > m.cfg.TileCap {
			tiles = tiles[:m.cfg.TileCap]
		}
		for p := 0; p < times*len(tiles); p++ {
			if err := m.tile(layer.Name, &tiles[p%len(tiles)]); err != nil {
				return err
			}
		}
	}
	return nil
}

// tile fetches t once its buffer is free, then books its compute phase.
func (m *machine) tile(layer string, t *workloads.Tile) error {
	if m.done2 > m.q.Now() {
		m.q.Call(m.done2, m.wait, 0)
		m.q.Run()
	}
	m.fetched = false
	m.eng.FetchViews(t.Views, m.onFetch)
	m.q.Run()
	if !m.fetched {
		return fmt.Errorf("npu: tile fetch deadlocked (model %s)", m.plan.Model)
	}
	ts := m.ts
	if m.cfg.TileTrace != nil {
		m.cfg.TileTrace(layer, t.Step, ts)
	}
	cc := sim.Cycle(m.cfg.Compute.TileCycles(t.M, t.K, t.N))
	m.memPhase += ts.Duration()
	m.compute += cc
	m.stall += ts.StallCycles
	m.translations += int64(ts.Transactions)
	m.bytes += ts.Bytes
	m.tiles++
	m.done1, m.done2 = max(ts.End, m.done1)+cc, m.done1
	return nil
}

// result collects the Result and its audited counter bundle. The run
// ends when both its last memory phase and its last compute phase have.
func (m *machine) result() *Result {
	cycles := max(m.q.Now(), m.done1)
	src := counters.Sources{
		MMU:    m.mmu.Stats(),
		TLB:    m.mmu.TLBStats(),
		Walker: m.mmu.WalkerStats(),
		Path:   m.mmu.PathStats(),
		Memory: m.mem.Stats(),
		DMA: counters.DMAStats{
			Tiles:         int64(m.eng.Tiles()),
			Segments:      m.eng.Segments(),
			Transactions:  m.eng.Transactions(),
			Bytes:         m.eng.Bytes(),
			DistinctPages: m.eng.DistinctPages(),
		},
		Cycles: counters.CycleStats{
			Total:    int64(cycles),
			MemPhase: int64(m.memPhase),
			Compute:  int64(m.compute),
			Stall:    int64(m.stall),
		},
	}
	return &Result{
		Model:          m.plan.Model,
		Batch:          m.plan.Batch,
		Compute:        m.cfg.Compute.Name(),
		MMUKind:        m.cfg.MMU.Kind,
		Cycles:         cycles,
		MemPhaseCycles: m.memPhase,
		ComputeCycles:  m.compute,
		StallCycles:    m.stall,
		Tiles:          m.tiles,
		Translations:   m.translations,
		Events:         m.q.Fired(),
		BytesFetched:   m.bytes,
		PageDivergence: m.eng.PageDivergence(),
		MMU:            src.MMU,
		TLB:            src.TLB,
		Walker:         src.Walker,
		Path:           src.Path,
		Memory:         src.Memory,
		Counters:       counters.Collect(src),
		Timeline:       m.eng.Timeline,
	}
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
