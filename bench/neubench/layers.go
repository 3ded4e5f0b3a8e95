package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neummu/internal/core"
	"neummu/internal/dma"
	"neummu/internal/exp"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/serve"
	"neummu/internal/sim"
	"neummu/internal/stats"
	"neummu/internal/store"
	"neummu/internal/systolic"
	"neummu/internal/tensor"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// layerMetrics is every per-layer metric the traced run reports, with the
// end-to-end metric and workload each one should move. BENCHMARK.json
// declares the same names and units.
var layerMetrics = []struct{ name, unit, better, moves string }{
	{"workloads.plan_ms", "ms", "lower", "latency_p50_ms on dense-cold (predicted <2%)"},
	{"workloads.tiles", "count", "lower", "latency_p50_ms on dense-cold"},
	{"vm.snapshot_ms", "ms", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"vm.pages", "count", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"vm.walk_ns", "ns", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"npu.run_ms", "ms", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"npu.oracle_ns_per_xlat", "ns", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"npu.host_ns_per_xlat", "ns", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"npu.simcycles_per_host_s", "cycles/s", "higher", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"npu.allocs_per_cell", "count", "lower", "peak_rss_mb on decode-cold"},
	{"npu.alloc_mb_per_cell", "MiB", "lower", "peak_rss_mb on decode-cold"},
	{"core.xlat_ns", "ns", "lower", "throughput_cells_per_s on decode-cold, then dense-cold; none on warm-hits, disk-warm"},
	{"core.tlb_misses", "count", "lower", "throughput_cells_per_s on decode-cold, then dense-cold"},
	{"core.walks", "count", "lower", "throughput_cells_per_s on decode-cold, then dense-cold"},
	{"core.merges", "count", "higher", "throughput_cells_per_s on decode-cold, then dense-cold"},
	{"tlb.lookup_ns", "ns", "lower", "throughput_cells_per_s on decode-cold"},
	{"tlb.hit_rate", "ratio", "higher", "throughput_cells_per_s on decode-cold"},
	{"walker.submit_ns", "ns", "lower", "throughput_cells_per_s on decode-cold"},
	{"walker.merge_frac", "ratio", "higher", "throughput_cells_per_s on decode-cold"},
	{"walker.path_hit_rate", "ratio", "higher", "throughput_cells_per_s on decode-cold"},
	{"walker.reads_per_walk", "count", "lower", "throughput_cells_per_s on decode-cold"},
	{"dma.split_ns", "ns", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"dma.txns_per_tile", "count", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"memsys.access_ns", "ns", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"memsys.accesses", "count", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"exp.cell_ms", "ms", "lower", "latency_p50_ms on dense-cold"},
	{"exp.overhead_frac", "ratio", "lower", "latency_p50_ms on dense-cold"},
	{"serve.queue_ms", "ms", "lower", "latency_p50_ms on dense-cold, through queue wait"},
	{"serve.cache_ms", "ms", "lower", "latency_p50_ms and throughput_cells_per_s on warm-hits"},
	{"serve.disk_ms", "ms", "lower", "throughput_cells_per_s on disk-warm"},
	{"serve.compute_ms", "ms", "lower", "throughput_cells_per_s on dense-cold, decode-cold"},
	{"serve.overhead_ms", "ms", "lower", "latency_p50_ms on warm-hits"},
	{"serve.cache_hit_rate", "ratio", "higher", "latency_p50_ms on warm-hits"},
	{"serve.cells_simulated", "count", "lower", "throughput_cells_per_s on disk-warm (0 there)"},
	{"store.open_ms", "ms", "lower", "setup_s and throughput_cells_per_s on disk-warm"},
	{"store.get_us", "us", "lower", "throughput_cells_per_s on disk-warm"},
	{"store.put_us", "us", "lower", "latency_p50_ms on dense-cold (predicted no move: puts are write-behind)"},
	{"store.disk_hits", "count", "higher", "throughput_cells_per_s on disk-warm"},
}

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// replayCap bounds the transactions per cell the functional layer replays
// (vm, tlb, walker, memsys) keep; the per-operation costs they report do
// not need the whole stream, and the cap bounds the traced run's memory.
const replayCap = 1 << 20

// ledger accumulates the traced run's layer measurements.
type ledger struct {
	cells, plans, snaps                               int
	planNS, snapNS, runNS, oracleNS, coreNS, expNS    int64
	pages, tiles, xlat, oracleXlat, cycles            int64
	allocs, allocBytes                                uint64
	tlbMisses, walks, merges, memAccesses             int64
	dmaNS, dmaTxns, dmaTiles, walkNS, walkOps         int64
	tlbNS, tlbLookups, tlbHits, memNS, memOps         int64
	walkerNS, walkerReqs, walkerMerges, walkerStarted int64
	walkerReads, pathProbes, pathL4Hits               int64
	storeOpenNS, storeGetNS, storePutNS, storeN       int64
}

// measureLayers replays a workload's cells in-process at GOMAXPROCS=1,
// timing each call into a layer, and derives the serve and store rows from
// the traced round (its scrape, client latencies and store directory).
func measureLayers(p plan, last roundOut, clientLats []float64) ([]metric, []span, []string, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := &tracer{t0: time.Now()}
	var l ledger

	type group struct {
		e      serve.Effort
		points []exp.Point
		cycles []int64
	}
	var groups []*group
	for _, r := range p.trace {
		e, err := serve.MergeEffort(r.req.Effort, r.req.Quick, r.req.RepeatCap, r.req.TileCap)
		if err != nil {
			return nil, nil, nil, err
		}
		pts, err := serve.ExpandSweep(serve.NewHarnessCache(1).Get(e), r.req, 1<<20)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(groups) == 0 || groups[len(groups)-1].e != e {
			groups = append(groups, &group{e: e})
		}
		g := groups[len(groups)-1]
		g.points = append(g.points, pts...)
	}

	r := replayer{tr: tr, l: &l,
		plans:   map[planKey]*workloads.Plan{},
		snaps:   map[snapKey]*vm.Snapshot{},
		oracles: map[oracleKey]int64{}}
	for _, g := range groups {
		opts := serve.NewHarnessCache(1).Get(g.e).Options()
		for _, pt := range g.points {
			cycles, err := r.cell(pt, opts)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", pt.Label(), err)
			}
			g.cycles = append(g.cycles, cycles)
		}
	}
	// The harness on a fresh cache, serially: the whole exp rung. Its
	// answers must equal the rung-by-rung replay's. It runs right after the
	// npu rungs and before the functional replays below, whose buffers
	// would otherwise evict the simulator's working set between runs.
	for _, g := range groups {
		h := serve.NewHarnessCache(1).Get(g.e)
		var rows []exp.SweepResult
		var err error
		l.expNS += int64(tr.timed("exp.SweepPoints", 0, func() { rows, err = h.SweepPoints(g.points) }))
		if err != nil {
			return nil, nil, nil, err
		}
		for i, row := range rows {
			if int64(row.Result.Cycles) != g.cycles[i] {
				return nil, nil, nil, fmt.Errorf("%s: replay simulated %d cycles, the harness %d",
					row.Point.Label(), g.cycles[i], row.Result.Cycles)
			}
		}
	}
	for _, g := range groups {
		opts := serve.NewHarnessCache(1).Get(g.e).Options()
		for _, pt := range g.points {
			if err := r.replay(pt, opts); err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", pt.Label(), err)
			}
		}
	}
	if err := measureStore(tr, &l, last.dir); err != nil {
		return nil, nil, nil, err
	}

	v := map[string]float64{}
	per := func(a int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(a) / float64(n)
	}
	cells := int64(l.cells)
	v["workloads.plan_ms"] = per(l.planNS, int64(l.plans)) / 1e6
	v["workloads.tiles"] = per(l.tiles, cells)
	v["vm.snapshot_ms"] = per(l.snapNS, int64(l.snaps)) / 1e6
	v["vm.pages"] = per(l.pages, int64(l.snaps))
	v["vm.walk_ns"] = per(l.walkNS, l.walkOps)
	v["npu.run_ms"] = per(l.runNS, cells) / 1e6
	v["npu.oracle_ns_per_xlat"] = per(l.oracleNS, l.oracleXlat)
	v["npu.host_ns_per_xlat"] = per(l.runNS, l.xlat)
	v["npu.simcycles_per_host_s"] = per(l.cycles, l.runNS) * 1e9
	v["npu.allocs_per_cell"] = per(int64(l.allocs), cells)
	v["npu.alloc_mb_per_cell"] = per(int64(l.allocBytes), cells) / (1 << 20)
	v["core.xlat_ns"] = per(l.coreNS, l.xlat)
	v["core.tlb_misses"] = per(l.tlbMisses, cells)
	v["core.walks"] = per(l.walks, cells)
	v["core.merges"] = per(l.merges, cells)
	v["tlb.lookup_ns"] = per(l.tlbNS, l.tlbLookups)
	v["tlb.hit_rate"] = per(l.tlbHits, l.tlbLookups)
	v["walker.submit_ns"] = per(l.walkerNS, l.walkerReqs)
	v["walker.merge_frac"] = per(l.walkerMerges, l.walkerReqs)
	v["walker.path_hit_rate"] = per(l.pathL4Hits, l.pathProbes)
	v["walker.reads_per_walk"] = per(l.walkerReads, l.walkerStarted)
	v["dma.split_ns"] = per(l.dmaNS, l.dmaTxns)
	v["dma.txns_per_tile"] = per(l.dmaTxns, l.dmaTiles)
	v["memsys.access_ns"] = per(l.memNS, l.memOps)
	v["memsys.accesses"] = per(l.memAccesses, cells)
	v["exp.cell_ms"] = per(l.expNS, cells) / 1e6
	parts := l.planNS + l.snapNS + l.runNS + l.oracleNS
	v["exp.overhead_frac"] = 1 - per(parts, l.expNS)
	v["store.open_ms"] = float64(l.storeOpenNS) / 1e6
	v["store.get_us"] = per(l.storeGetNS, l.storeN) / 1e3
	v["store.put_us"] = per(l.storePutNS, l.storeN) / 1e3

	// serve: per-cell stage means from the child's stage histograms. Every
	// cell span records a cache stage, so its count is the cell count;
	// merge is recorded once per request.
	s := last.scr
	cellSpans := s.stageCount["cache"]
	perCell := func(stage string) float64 {
		if cellSpans == 0 {
			return 0
		}
		return s.stageSum[stage] / cellSpans * 1e3
	}
	for _, st := range []string{"queue", "cache", "disk", "compute"} {
		v["serve."+st+"_ms"] = perCell(st)
	}
	merge := 0.0
	if n := s.stageCount["merge"]; n > 0 {
		merge = s.stageSum["merge"] / n * 1e3
	}
	cellsPerReq := float64(p.cellsPerRound()) / float64(len(p.round))
	stageSum := cellsPerReq*(v["serve.queue_ms"]+v["serve.cache_ms"]+v["serve.disk_ms"]+v["serve.compute_ms"]) + merge
	v["serve.overhead_ms"] = stats.Percentile(clientLats, 0.5) - stageSum
	if s.cacheLooks > 0 {
		v["serve.cache_hit_rate"] = s.cacheHits / s.cacheLooks
	}
	v["serve.cells_simulated"] = s.simulated
	v["store.disk_hits"] = s.diskHits

	out := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		val, ok := v[m.name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("layer metric %s was not measured", m.name)
		}
		out = append(out, metric{Name: m.name, Value: val, Unit: m.unit, N: l.cells, Moves: m.moves})
	}
	notes := []string{
		fmt.Sprintf("ledger: plan + snapshot + npu.Run + first oracle per key = %.3f ms/cell against exp.cell_ms %.3f (gap %.1f%%)",
			per(parts, cells)/1e6, v["exp.cell_ms"], 100*v["exp.overhead_frac"]),
		fmt.Sprintf("core.xlat_ns %.1f beside npu.oracle_ns_per_xlat %.1f", v["core.xlat_ns"], v["npu.oracle_ns_per_xlat"]),
	}
	return out, tr.spans, notes, nil
}

type planKey struct {
	model string
	batch int
}

type snapKey struct {
	planKey
	ps vm.PageSize
}

type oracleKey struct {
	snapKey
	repeatCap, tileCap int
}

// replayer runs each cell rung by rung, keeping the plan, snapshot and
// oracle memos the harness keeps, so the first cell of a key pays for them
// exactly as it does inside exp, and then replays it layer by layer.
type replayer struct {
	tr      *tracer
	l       *ledger
	plans   map[planKey]*workloads.Plan
	snaps   map[snapKey]*vm.Snapshot
	oracles map[oracleKey]int64 // host ns of the key's oracle run

	txns   []dma.Transaction
	segs   []tensor.Segment
	pas    []vm.PhysAddr
	misses []miss
}

// cell times one cell's plan, snapshot and npu.Run rungs and returns its
// simulated cycles.
func (r *replayer) cell(p exp.Point, opts exp.Options) (int64, error) {
	tr, l := r.tr, r.l
	id := tr.begin("cell "+p.Label(), 0)
	defer tr.end(id)
	l.cells++
	pk := planKey{p.Model, p.Batch}
	pl, ok := r.plans[pk]
	if !ok {
		m, err := workloads.ByName(p.Model)
		if err != nil {
			return 0, err
		}
		l.planNS += int64(tr.timed("workloads.BuildPlan", id, func() { pl, err = workloads.BuildPlan(m, p.Batch, workloads.DefaultTiles()) }))
		if err != nil {
			return 0, err
		}
		r.plans[pk] = pl
		l.plans++
	}
	sk := snapKey{pk, p.PageSize}
	snap, ok := r.snaps[sk]
	if !ok {
		l.snapNS += int64(tr.timed("npu.BuildTranslations", id, func() { snap = npu.BuildTranslations(pl, p.PageSize) }))
		r.snaps[sk] = snap
		l.snaps++
		l.pages += int64(snap.Table().Mapped4K() + snap.Table().Mapped2M())
	}

	cfg := npu.Config{
		MMU: p.MMU(), Memory: memsys.Baseline(), Compute: systolic.Baseline(),
		RepeatCap: opts.RepeatCap, TileCap: opts.TileCap, Translations: snap,
	}
	var res *npu.Result
	var err error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runNS := int64(tr.timed("npu.Run", id, func() { res, err = npu.Run(pl, cfg) }))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	l.runNS += runNS
	l.allocs += m1.Mallocs - m0.Mallocs
	l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	l.cycles += int64(res.Cycles)
	l.xlat += res.Translations
	l.tiles += int64(res.Tiles)
	l.tlbMisses += res.Counters.TLBMisses
	l.walks += res.Counters.WalksIssued
	l.merges += res.Counters.PRMBMerges
	l.memAccesses += res.Counters.DRAMAccesses

	okey := oracleKey{sk, opts.RepeatCap, opts.TileCap}
	oracleNS, ok := r.oracles[okey]
	if !ok {
		ocfg := cfg
		ocfg.MMU = core.Config{Kind: core.Oracle, PageSize: p.PageSize}
		var ores *npu.Result
		oracleNS = int64(tr.timed("npu.Run oracle", id, func() { ores, err = npu.Run(pl, ocfg) }))
		if err != nil {
			return 0, err
		}
		r.oracles[okey] = oracleNS
		l.oracleNS += oracleNS
		l.oracleXlat += ores.Translations
	}
	l.coreNS += runNS - oracleNS
	return int64(res.Cycles), nil
}

// replay runs one cell's transaction stream through the dma, vm, tlb,
// walker and memsys layers, functionally, on the plan and snapshot cell
// already built.
func (r *replayer) replay(p exp.Point, opts exp.Options) error {
	id := r.tr.begin("replay "+p.Label(), 0)
	defer r.tr.end(id)
	pk := planKey{p.Model, p.Batch}
	snap := r.snaps[snapKey{pk, p.PageSize}]
	r.split(id, r.plans[pk], opts, p.PageSize)
	if err := r.walk(id, snap.Table()); err != nil {
		return err
	}
	if p.Kind != core.Oracle {
		r.tlb(id, p.PageSize)
		if err := r.walker(id, p.MMU().Walker, snap.Table()); err != nil {
			return err
		}
	}
	r.memsys(id)
	return nil
}

// split decomposes every simulated tile into DMA transactions, in the
// order npu.Run fetches them, keeping the first replayCap for the
// functional replays below.
func (r *replayer) split(parent int, pl *workloads.Plan, opts exp.Options, ps vm.PageSize) {
	l := r.l
	r.txns = r.txns[:0]
	id := r.tr.begin("dma.AppendTransactions", parent)
	for _, layer := range pl.Layers {
		times := layer.Times()
		if opts.RepeatCap > 0 && times > opts.RepeatCap {
			times = opts.RepeatCap
		}
		tiles := layer.Tiles
		if opts.TileCap > 0 && len(tiles) > opts.TileCap {
			tiles = tiles[:opts.TileCap]
		}
		for rep := 0; rep < times; rep++ {
			for _, t := range tiles {
				segs := r.segs[:0]
				for _, v := range t.Views {
					segs = v.AppendSegments(segs)
				}
				r.segs = segs
				n0 := len(r.txns)
				r.txns = dma.AppendTransactions(r.txns, segs, ps, dma.DefaultBurst)
				l.dmaTxns += int64(len(r.txns) - n0)
				l.dmaTiles++
				r.txns = r.txns[:min(len(r.txns), replayCap)]
			}
		}
	}
	l.dmaNS += int64(r.tr.end(id))
}

// walk translates the transaction stream through the frozen page table.
func (r *replayer) walk(parent int, pt *vm.PageTable) error {
	r.pas = r.pas[:0]
	var err error
	r.l.walkNS += int64(r.tr.timed("vm.PageTable.Walk", parent, func() {
		for _, t := range r.txns {
			e, _, werr := pt.Walk(t.VA)
			if werr != nil {
				err = fmt.Errorf("walking %#x: %w", t.VA, werr)
				return
			}
			r.pas = append(r.pas, e.Frame+vm.PhysAddr(vm.PageOffset(t.VA, e.Size)))
		}
	}))
	r.l.walkOps += int64(len(r.txns))
	return err
}

// tlb replays the stream through a baseline TLB, one transaction per
// cycle as the DMA issues them. A miss fills the TLB a walk later (one
// 100-cycle access per page-table level), so the misses of a burst to one
// page all miss, as in the simulation. The misses, with their issue cycle,
// feed the walker replay.
func (r *replayer) tlb(parent int, ps vm.PageSize) {
	type fill struct {
		at    int
		va    vm.VirtAddr
		frame vm.PhysAddr
	}
	walkCycles := ps.Levels() * 100
	t := tlb.New(tlb.Baseline(ps))
	var pending []fill
	r.misses = r.misses[:0]
	r.l.tlbNS += int64(r.tr.timed("tlb.Lookup/Fill", parent, func() {
		for i, tx := range r.txns {
			for len(pending) > 0 && pending[0].at <= i {
				t.Fill(pending[0].va, pending[0].frame, 0)
				pending = pending[1:]
			}
			if _, _, hit := t.Lookup(tx.VA); !hit {
				pending = append(pending, fill{i + walkCycles, tx.VA, r.pas[i] - vm.PhysAddr(vm.PageOffset(tx.VA, ps))})
				r.misses = append(r.misses, miss{tx.VA, sim.Cycle(i)})
			}
		}
	}))
	st := t.Stats()
	r.l.tlbLookups += st.Lookups
	r.l.tlbHits += st.Hits
}

// miss is one TLB miss of the replay and the cycle it was issued.
type miss struct {
	va vm.VirtAddr
	at sim.Cycle
}

// walker submits the TLB-miss stream to the cell's walker pool on its own
// event queue, each miss at its issue cycle or, after the pool refused a
// request, as soon as OnCapacity reports room.
func (r *replayer) walker(parent int, cfg walker.Config, pt *vm.PageTable) error {
	if len(r.misses) == 0 {
		return nil
	}
	q := &sim.Queue{}
	pool := walker.NewPool(cfg, pt, q)
	pool.OnComplete = func(walker.Request, vm.Entry, sim.Cycle) {}
	next, refused := 0, false
	var hSubmit sim.HandlerID
	submit := func(now sim.Cycle, _ int64) {
		m := r.misses[next]
		if !pool.Submit(walker.Request{VA: m.va, Seq: uint64(next)}) {
			refused = true
			return
		}
		if next++; next < len(r.misses) {
			q.Call(max(r.misses[next].at, now), hSubmit, 0)
		}
	}
	hSubmit = q.Register(sim.HandlerFunc(submit))
	pool.OnCapacity = func(now sim.Cycle) {
		if refused {
			refused = false
			submit(now, 0)
		}
	}
	r.l.walkerNS += int64(r.tr.timed("walker.Pool.Submit", parent, func() {
		q.Call(r.misses[0].at, hSubmit, 0)
		q.Run()
	}))
	if next < len(r.misses) {
		return fmt.Errorf("walker replay stalled after %d of %d requests", next, len(r.misses))
	}
	st, ps := pool.Stats(), pool.PathStats()
	r.l.walkerReqs += st.Requests
	r.l.walkerMerges += st.Merges
	r.l.walkerStarted += st.WalksStarted
	r.l.walkerReads += st.WalkMemAccesses
	r.l.pathProbes += ps.Probes
	r.l.pathL4Hits += ps.L4Hits
	return nil
}

// memsys books every transaction on a baseline memory system, draining
// its event queue every 4096 accesses so the heap stays small.
func (r *replayer) memsys(parent int) {
	q := &sim.Queue{}
	mem := memsys.New(memsys.Baseline(), q)
	h := q.Register(sim.HandlerFunc(func(sim.Cycle, int64) {}))
	r.l.memNS += int64(r.tr.timed("memsys.AccessCall", parent, func() {
		for i, tx := range r.txns {
			mem.AccessCall(r.pas[i], tx.Bytes, h, int64(i))
			if i%4096 == 4095 {
				q.Run()
			}
		}
		q.Run()
	}))
	r.l.memOps += int64(len(r.txns))
}

// measureStore opens a copy of the traced round's store directory, reads
// back every entry it holds, and writes them all into a fresh store.
func measureStore(tr *tracer, l *ledger, dir string) error {
	type entry struct {
		hash uint64
		e    store.Entry
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var entries []entry
	for _, de := range des {
		name := de.Name()
		var hash uint64
		if _, err := fmt.Sscanf(name, "cell-%x.neu", &hash); err != nil || filepath.Ext(name) != ".neu" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		e, err := store.Decode(b)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		entries = append(entries, entry{hash, e})
	}

	readDir, err := os.MkdirTemp(filepath.Dir(dir), "trace-read-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(readDir)
	if err := copyDir(dir, readDir); err != nil {
		return err
	}
	var st *store.Store
	l.storeOpenNS = int64(tr.timed("store.Open", 0, func() { st, err = store.Open(store.Config{Dir: readDir}) }))
	if err != nil {
		return err
	}
	misses := 0
	l.storeGetNS = int64(tr.timed("store.Get", 0, func() {
		for _, en := range entries {
			if _, ok := st.Get(en.hash, en.e.Key); !ok {
				misses++
			}
		}
	}))
	st.Close()
	if misses > 0 {
		return fmt.Errorf("store replay: %d of %d entries missed", misses, len(entries))
	}

	writeDir, err := os.MkdirTemp(filepath.Dir(dir), "trace-write-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(writeDir)
	if st, err = store.Open(store.Config{Dir: writeDir, QueueDepth: len(entries) + 1}); err != nil {
		return err
	}
	l.storePutNS = int64(tr.timed("store.Put+Flush", 0, func() {
		for _, en := range entries {
			st.Put(en.hash, en.e.Key, en.e.Value)
		}
		st.Flush()
	}))
	dropped := st.Stats().DroppedPuts
	st.Close()
	if dropped > 0 {
		return fmt.Errorf("store replay: %d puts dropped", dropped)
	}
	l.storeN = int64(len(entries))
	return nil
}
