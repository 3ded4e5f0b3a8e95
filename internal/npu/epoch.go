// Epoch-structured execution: the alternative engine behind
// Config.IntraCellWorkers and Config.Sampled.
//
// The monolithic engine (npu.go) threads one event queue through the
// whole tile schedule, so a single 8K-token cell pins one core for its
// entire wall-clock. This engine partitions the schedule at the natural
// barriers the planner already tags (workloads.Tile.Epoch: one weight/KV
// block for conv, GEMM and encoder attention; one decode step for
// autoregressive attention; one repeat for layers without weight reuse)
// and simulates each epoch on its own private Queue/MMU/memory instance,
// seeded from the shared frozen translation snapshot. Per-tile memory
// and compute durations measured inside the epochs are then merged by
// replaying the paper's double-buffer recurrence over the full schedule:
//
//	fetchStart[i] = max(memEnd[i-1], computeDone[i-2])
//	memEnd[i]     = fetchStart[i] + D[i]
//	computeDone[i] = max(memEnd[i], computeDone[i-1]) + cc[i]
//
// The merge is pure arithmetic in schedule order and every epoch's local
// simulation is independent of how many run concurrently, so the result
// is byte-identical for every IntraCellWorkers ≥ 1 (asserted in
// epoch_test.go, the same contract the cluster merge keeps). It is NOT
// byte-identical to the monolithic engine: epochs start cold, so TLB and
// translation-path-cache state does not cross epoch boundaries. The two
// engines are therefore distinct, explicitly keyed schedule semantics —
// serve/cluster fold the choice into the cell key so they never alias.
//
// Sampled mode rides on the same partition: epochs are the sampling
// population, stratified per layer, drawn by a seeded deterministic RNG
// so the same seed always simulates the same subset, and scaled up by
// per-stratum Horvitz–Thompson estimators (internal/stats). Scaled
// counter bundles are rebuilt law-by-law so every conservation law in
// counters.Violations still holds on the estimates.
package npu

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"neummu/internal/core"
	"neummu/internal/counters"
	"neummu/internal/dma"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/stats"
	"neummu/internal/vm"
	"neummu/internal/workloads"
)

// SampleStats is the sampling audit a sampled-mode run attaches to its
// Result: how much of the epoch population was simulated, under which
// seed, and how tight the resulting estimate is.
type SampleStats struct {
	// Population and Simulated count epochs (the sampling unit).
	Population int
	Simulated  int
	// Seed is the RNG seed the subset was drawn with; re-running with
	// the same seed simulates exactly the same epochs.
	Seed uint64
	// TargetCI is the requested relative 95% CI half-width; RelCI95 the
	// achieved one (both relative to the estimated phase total).
	TargetCI float64
	RelCI95  float64
	// CyclesLo/CyclesHi bracket Result.Cycles at 95% confidence.
	CyclesLo sim.Cycle
	CyclesHi sim.Cycle
}

// epoch is one contiguous run of the capped tile schedule that the
// engine may simulate in isolation.
type epoch struct {
	layer int // index into plan.Layers — also the sampling stratum
	tiles []workloads.Tile
}

// buildEpochs applies the repeat/tile caps exactly like the monolithic
// engine, then splits the schedule at epoch boundaries: whenever the
// planner's Tile.Epoch tag changes, and additionally at repeat
// boundaries for layers whose repeats do not share a weight set.
func buildEpochs(plan *workloads.Plan, repeatCap, tileCap int) []epoch {
	var eps []epoch
	for li, layer := range plan.Layers {
		times := layer.Times()
		if repeatCap > 0 && times > repeatCap {
			times = repeatCap
		}
		tiles := layer.Tiles
		if tileCap > 0 && len(tiles) > tileCap {
			tiles = tiles[:tileCap]
		}
		if len(tiles) == 0 {
			continue
		}
		cur := epoch{layer: li}
		prevTag := tiles[0].Epoch
		for rep := 0; rep < times; rep++ {
			for ti, t := range tiles {
				if (ti == 0 && rep > 0 && !layer.WeightReuse) || t.Epoch != prevTag {
					if len(cur.tiles) > 0 {
						eps = append(eps, cur)
					}
					cur = epoch{layer: li}
					prevTag = t.Epoch
				}
				cur.tiles = append(cur.tiles, t)
			}
		}
		if len(cur.tiles) > 0 {
			eps = append(eps, cur)
		}
	}
	return eps
}

// epochRun is the outcome of one epoch's local simulation: the per-tile
// phase durations the merge replays, plus the epoch's component stats.
type epochRun struct {
	d, cc []sim.Cycle // per-tile memory / compute phase durations

	memPhase, compute, stall sim.Cycle
	translations, bytes      int64
	tiles                    int
	pageDiv                  stats.Dist
	src                      counters.Sources // Cycles left zero; merge fills it
}

// phases returns the epoch's total phase volume (its sampling value).
func (r *epochRun) phases() float64 {
	return float64(r.memPhase) + float64(r.compute)
}

// runEpochLocal simulates one epoch on a private queue at t=0, applying
// the same per-tile double-buffer waits the monolithic engine applies —
// just with the epoch's own (initially empty) compute history.
func runEpochLocal(plan *workloads.Plan, cfg Config, snap *vm.Snapshot, ep epoch) (*epochRun, error) {
	pt := snap.Table()
	q := &sim.Queue{}
	mmu := core.New(cfg.MMU, pt, q)
	mem := memsys.New(cfg.Memory, q)
	eng := dma.New(q, mmu, mem)
	wait := q.Register(noop)

	r := &epochRun{
		d:  make([]sim.Cycle, 0, len(ep.tiles)),
		cc: make([]sim.Cycle, 0, len(ep.tiles)),
	}
	computeDone := make([]sim.Cycle, 0, len(ep.tiles))
	for i, t := range ep.tiles {
		if i >= 2 {
			if ready := computeDone[i-2]; ready > q.Now() {
				q.Call(ready, wait, 0)
				q.Run()
			}
		}
		var ts dma.TileStats
		fetched := false
		eng.FetchViews(t.Views, func(s dma.TileStats) { ts, fetched = s, true })
		q.Run()
		if !fetched {
			return nil, fmt.Errorf("npu: tile fetch deadlocked (model %s)", plan.Model)
		}
		d := ts.Duration()
		cc := sim.Cycle(cfg.Compute.TileCycles(t.M, t.K, t.N))
		r.d = append(r.d, d)
		r.cc = append(r.cc, cc)
		r.memPhase += d
		r.compute += cc
		r.stall += ts.StallCycles
		r.translations += int64(ts.Transactions)
		r.bytes += ts.Bytes
		start := ts.End
		if i >= 1 && computeDone[i-1] > start {
			start = computeDone[i-1]
		}
		computeDone = append(computeDone, start+cc)
	}
	r.tiles = len(ep.tiles)
	r.pageDiv = eng.PageDivergence()
	r.src = counters.Sources{
		MMU:    mmu.Stats(),
		TLB:    mmu.TLBStats(),
		Walker: mmu.WalkerStats(),
		Path:   mmu.PathStats(),
		Memory: mem.Stats(),
		DMA: counters.DMAStats{
			Tiles:         int64(eng.Tiles()),
			Segments:      eng.Segments(),
			Transactions:  eng.Transactions(),
			Bytes:         eng.Bytes(),
			DistinctPages: eng.DistinctPages(),
		},
	}
	return r, nil
}

// mergeTimeline replays the double-buffer recurrence over the measured
// per-tile phase durations of runs, in schedule order, producing the
// end-to-end cycle count and the final memory-phase end time.
func mergeTimeline(runs []*epochRun) (cycles, lastMem sim.Cycle) {
	n := 0
	for _, r := range runs {
		n += len(r.d)
	}
	computeDone := make([]sim.Cycle, 0, n)
	var prevMemEnd sim.Cycle
	idx := 0
	for _, r := range runs {
		for i := range r.d {
			start := prevMemEnd
			if idx >= 2 && computeDone[idx-2] > start {
				start = computeDone[idx-2]
			}
			prevMemEnd = start + r.d[i]
			cd := prevMemEnd
			if idx >= 1 && computeDone[idx-1] > cd {
				cd = computeDone[idx-1]
			}
			computeDone = append(computeDone, cd+r.cc[i])
			idx++
		}
	}
	cycles = prevMemEnd
	if idx > 0 && computeDone[idx-1] > cycles {
		cycles = computeDone[idx-1]
	}
	return cycles, prevMemEnd
}

// addSources folds b's component stats into a, field-wise.
func addSources(a, b counters.Sources) counters.Sources {
	a.MMU.Issued += b.MMU.Issued
	a.MMU.OracleHits += b.MMU.OracleHits
	a.MMU.TLBHits += b.MMU.TLBHits
	a.MMU.TLBMisses += b.MMU.TLBMisses
	a.MMU.Faults += b.MMU.Faults
	a.MMU.Retries += b.MMU.Retries
	a.MMU.StallEnter += b.MMU.StallEnter
	a.MMU.Prefetches += b.MMU.Prefetches
	a.MMU.Latency.Merge(b.MMU.Latency)

	a.TLB.Lookups += b.TLB.Lookups
	a.TLB.Hits += b.TLB.Hits
	a.TLB.Misses += b.TLB.Misses
	a.TLB.Fills += b.TLB.Fills
	a.TLB.Evictions += b.TLB.Evictions

	a.Walker.Requests += b.Walker.Requests
	a.Walker.WalksStarted += b.Walker.WalksStarted
	a.Walker.WalksCompleted += b.Walker.WalksCompleted
	a.Walker.RedundantWalks += b.Walker.RedundantWalks
	a.Walker.Merges += b.Walker.Merges
	a.Walker.MergeFails += b.Walker.MergeFails
	a.Walker.Rejected += b.Walker.Rejected
	a.Walker.WalkMemAccesses += b.Walker.WalkMemAccesses
	a.Walker.SkippedLevels += b.Walker.SkippedLevels
	a.Walker.Faults += b.Walker.Faults
	a.Walker.PTSLookups += b.Walker.PTSLookups
	a.Walker.PRMBWrites += b.Walker.PRMBWrites
	a.Walker.PRMBReads += b.Walker.PRMBReads

	a.Path.Probes += b.Path.Probes
	a.Path.L4Hits += b.Path.L4Hits
	a.Path.L3Hits += b.Path.L3Hits
	a.Path.L2Hits += b.Path.L2Hits
	a.Path.Updates += b.Path.Updates

	a.Memory.Accesses += b.Memory.Accesses
	a.Memory.Bytes += b.Memory.Bytes
	a.Memory.WalkReads += b.Memory.WalkReads
	if b.Memory.MaxOccupied > a.Memory.MaxOccupied {
		a.Memory.MaxOccupied = b.Memory.MaxOccupied
	}

	a.DMA.Tiles += b.DMA.Tiles
	a.DMA.Segments += b.DMA.Segments
	a.DMA.Transactions += b.DMA.Transactions
	a.DMA.Bytes += b.DMA.Bytes
	a.DMA.DistinctPages += b.DMA.DistinctPages
	return a
}

// runEpoched is the entry point Run dispatches to for epoch-parallel
// and sampled simulations.
func runEpoched(plan *workloads.Plan, cfg Config) (*Result, error) {
	snap := cfg.Translations
	if snap == nil {
		snap = BuildTranslations(plan, cfg.MMU.PageSize)
	}
	eps := buildEpochs(plan, cfg.RepeatCap, cfg.TileCap)
	if cfg.Sampled {
		return runSampled(plan, cfg, snap, eps)
	}

	workers := cfg.IntraCellWorkers
	if workers < 1 {
		workers = 1
	}
	runs := make([]*epochRun, len(eps))
	pool := sim.NewWorkerPool(workers)
	if err := pool.Do(len(eps), func(i int) error {
		r, err := runEpochLocal(plan, cfg, snap, eps[i])
		runs[i] = r
		return err
	}); err != nil {
		return nil, err
	}

	res := &Result{
		Model:   plan.Model,
		Batch:   plan.Batch,
		Compute: cfg.Compute.Name(),
		MMUKind: cfg.MMU.Kind,
	}
	var src counters.Sources
	for _, r := range runs {
		res.MemPhaseCycles += r.memPhase
		res.ComputeCycles += r.compute
		res.StallCycles += r.stall
		res.Translations += r.translations
		res.BytesFetched += r.bytes
		res.Tiles += r.tiles
		res.PageDivergence.Merge(r.pageDiv)
		src = addSources(src, r.src)
	}
	cycles, lastMem := mergeTimeline(runs)
	res.Cycles = cycles
	// Per-epoch occupancy timestamps are local to each epoch's queue;
	// on the merged timeline the channels are last busy at the final
	// memory-phase end.
	src.Memory.MaxOccupied = lastMem
	finishEpoched(res, src)
	return res, nil
}

// finishEpoched copies the summed sources into the result and collects
// the audited counter bundle with the merged cycle accounting.
func finishEpoched(res *Result, src counters.Sources) {
	src.Cycles = counters.CycleStats{
		Total:    int64(res.Cycles),
		MemPhase: int64(res.MemPhaseCycles),
		Compute:  int64(res.ComputeCycles),
		Stall:    int64(res.StallCycles),
	}
	res.MMU = src.MMU
	res.TLB = src.TLB
	res.Walker = src.Walker
	res.Path = src.Path
	res.Memory = src.Memory
	res.Counters = counters.Collect(src)
}

// sampleSeed derives the sampling seed from everything that shapes the
// epoch population — and nothing else. The MMU kind is deliberately
// excluded so an oracle normalization run draws exactly the same epochs
// as its candidate and the performance ratio stays paired.
func sampleSeed(plan *workloads.Plan, cfg Config, targetCI float64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%g", plan.Model, plan.Batch, cfg.RepeatCap, cfg.TileCap, targetCI)
	return h.Sum64()
}

// sampleFraction maps the requested CI half-width to a sampling
// fraction: the default 5% target simulates a quarter of each stratum,
// tighter targets scale the fraction up proportionally (variance shrinks
// roughly linearly in the sampled share under the finite-population
// correction), and the fraction never drops below 10%.
func sampleFraction(targetCI float64) float64 {
	f := 0.25 * 0.05 / targetCI
	return math.Min(1, math.Max(0.1, f))
}

// sampleEpochs draws a per-layer stratified sample of epoch indices —
// at least two per stratum where the stratum allows, so each stratum's
// variance is observable. The draw consumes the RNG in fixed stratum
// order, making the selection a pure function of (eps, seed, targetCI).
func sampleEpochs(eps []epoch, seed uint64, targetCI float64) []int {
	f := sampleFraction(targetCI)
	rng := rand.New(rand.NewSource(int64(seed)))
	var sel []int
	for lo := 0; lo < len(eps); {
		hi := lo
		for hi < len(eps) && eps[hi].layer == eps[lo].layer {
			hi++
		}
		n := hi - lo
		s := int(math.Ceil(f * float64(n)))
		if s < 2 {
			s = 2
		}
		if s > n {
			s = n
		}
		// Partial Fisher–Yates: the first s slots end up holding a
		// uniform without-replacement draw from the stratum.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < s; i++ {
			j := i + rng.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		take := idx[:s]
		sort.Ints(take)
		for _, i := range take {
			sel = append(sel, lo+i)
		}
		lo = hi
	}
	return sel
}

// scaleCount scales an event count by the stratum weight, rounding to
// the nearest integer.
func scaleCount(x int64, w float64) int64 {
	return int64(math.Round(float64(x) * w))
}

// scaleSources scales one stratum's summed component stats by the
// stratum weight w = population/sampled, law-preservingly: a basis of
// independent event counts is scaled with rounding and every derived
// count is recomputed from the scaled basis, so each conservation law
// in counters.Violations holds on the estimate by construction.
func scaleSources(s counters.Sources, w float64) counters.Sources {
	var o counters.Sources

	// MMU front end + TLB: hits/misses are the basis, lookups their
	// sum, and the issue count follows the issue-accounting law.
	o.MMU.OracleHits = scaleCount(s.MMU.OracleHits, w)
	o.MMU.Faults = scaleCount(s.MMU.Faults, w)
	o.MMU.Retries = scaleCount(s.MMU.Retries, w)
	o.MMU.StallEnter = scaleCount(s.MMU.StallEnter, w)
	o.MMU.Prefetches = scaleCount(s.MMU.Prefetches, w)
	o.TLB.Hits = scaleCount(s.TLB.Hits, w)
	o.TLB.Misses = scaleCount(s.TLB.Misses, w)
	o.TLB.Evictions = scaleCount(s.TLB.Evictions, w)
	o.TLB.Lookups = o.TLB.Hits + o.TLB.Misses
	o.MMU.TLBHits = o.TLB.Hits
	o.MMU.TLBMisses = o.TLB.Misses
	o.MMU.Issued = o.TLB.Lookups + o.MMU.OracleHits
	o.MMU.Latency = s.MMU.Latency
	o.MMU.Latency.N = scaleCount(s.MMU.Latency.N, w)
	o.MMU.Latency.Sum = s.MMU.Latency.Sum * w

	// Walker chain: requests come from misses and prefetches, walks
	// from unmerged requests, every walk completes, and non-faulting
	// completions fill the TLB.
	o.Walker.Merges = scaleCount(s.Walker.Merges, w)
	o.Walker.Requests = o.TLB.Misses + o.MMU.Prefetches
	if o.Walker.Merges > o.Walker.Requests {
		o.Walker.Merges = o.Walker.Requests
	}
	o.Walker.WalksStarted = o.Walker.Requests - o.Walker.Merges
	o.Walker.WalksCompleted = o.Walker.WalksStarted
	o.Walker.Faults = scaleCount(s.Walker.Faults, w)
	if o.Walker.Faults > o.Walker.WalksCompleted {
		o.Walker.Faults = o.Walker.WalksCompleted
	}
	o.TLB.Fills = o.Walker.WalksCompleted - o.Walker.Faults
	o.Walker.RedundantWalks = scaleCount(s.Walker.RedundantWalks, w)
	o.Walker.MergeFails = scaleCount(s.Walker.MergeFails, w)
	o.Walker.Rejected = scaleCount(s.Walker.Rejected, w)
	o.Walker.WalkMemAccesses = scaleCount(s.Walker.WalkMemAccesses, w)
	o.Walker.PTSLookups = scaleCount(s.Walker.PTSLookups, w)
	o.Walker.PRMBWrites = scaleCount(s.Walker.PRMBWrites, w)
	o.Walker.PRMBReads = scaleCount(s.Walker.PRMBReads, w)

	// Path caches: per-level hits are the basis, skips their sum.
	o.Path.Probes = scaleCount(s.Path.Probes, w)
	o.Path.L4Hits = scaleCount(s.Path.L4Hits, w)
	o.Path.L3Hits = scaleCount(s.Path.L3Hits, w)
	o.Path.L2Hits = scaleCount(s.Path.L2Hits, w)
	o.Path.Updates = scaleCount(s.Path.Updates, w)
	o.Walker.SkippedLevels = o.Path.L4Hits + o.Path.L3Hits + o.Path.L2Hits

	// DMA, then DRAM as its decomposition.
	o.DMA.Tiles = scaleCount(s.DMA.Tiles, w)
	o.DMA.Segments = scaleCount(s.DMA.Segments, w)
	o.DMA.Transactions = scaleCount(s.DMA.Transactions, w)
	o.DMA.Bytes = scaleCount(s.DMA.Bytes, w)
	o.DMA.DistinctPages = scaleCount(s.DMA.DistinctPages, w)
	if o.DMA.DistinctPages > o.DMA.Transactions {
		o.DMA.DistinctPages = o.DMA.Transactions
	}
	o.Memory.WalkReads = scaleCount(s.Memory.WalkReads, w)
	o.Memory.Accesses = o.DMA.Transactions + o.Memory.WalkReads
	o.Memory.Bytes = o.DMA.Bytes + 8*o.Memory.WalkReads
	o.Memory.MaxOccupied = s.Memory.MaxOccupied
	return o
}

// runSampled simulates the seeded stratified subset of eps and scales
// the outcome up to a population estimate with a 95% CI.
func runSampled(plan *workloads.Plan, cfg Config, snap *vm.Snapshot, eps []epoch) (*Result, error) {
	targetCI := cfg.SampleTargetCI
	if targetCI <= 0 {
		targetCI = 0.05
	}
	seed := cfg.SampleSeed
	if seed == 0 {
		seed = sampleSeed(plan, cfg, targetCI)
	}
	sel := sampleEpochs(eps, seed, targetCI)

	workers := cfg.IntraCellWorkers
	if workers < 1 {
		workers = 1
	}
	runs := make([]*epochRun, len(sel))
	pool := sim.NewWorkerPool(workers)
	if err := pool.Do(len(sel), func(i int) error {
		r, err := runEpochLocal(plan, cfg, snap, eps[sel[i]])
		runs[i] = r
		return err
	}); err != nil {
		return nil, err
	}

	res := &Result{
		Model:   plan.Model,
		Batch:   plan.Batch,
		Compute: cfg.Compute.Name(),
		MMUKind: cfg.MMU.Kind,
	}

	// Walk the sample stratum by stratum (sel is sorted, and epochs of
	// one layer are contiguous), scaling each stratum's totals by its
	// weight and accumulating the CI inputs.
	var src counters.Sources
	var strata []stats.Stratum
	var sampledPhases float64
	var memEst, compEst, stallEst int64
	for lo := 0; lo < len(sel); {
		layer := eps[sel[lo]].layer
		hi := lo
		for hi < len(sel) && eps[sel[hi]].layer == layer {
			hi++
		}
		population := 0
		for _, ep := range eps {
			if ep.layer == layer {
				population++
			}
		}
		st := stats.Stratum{Population: population}
		var ssrc counters.Sources
		var mem, comp, stall, trans, bytes int64
		var tiles int
		for _, r := range runs[lo:hi] {
			st.Values = append(st.Values, r.phases())
			sampledPhases += r.phases()
			ssrc = addSources(ssrc, r.src)
			mem += int64(r.memPhase)
			comp += int64(r.compute)
			stall += int64(r.stall)
			trans += r.translations
			bytes += r.bytes
			tiles += r.tiles
			res.PageDivergence.Merge(r.pageDiv)
		}
		w := float64(population) / float64(hi-lo)
		src = addSources(src, scaleSources(ssrc, w))
		memH := scaleCount(mem, w)
		stallH := scaleCount(stall, w)
		if stallH > memH {
			stallH = memH
		}
		memEst += memH
		compEst += scaleCount(comp, w)
		stallEst += stallH
		res.Translations += scaleCount(trans, w)
		res.BytesFetched += scaleCount(bytes, w)
		res.Tiles += int(scaleCount(int64(tiles), w))
		strata = append(strata, st)
		lo = hi
	}

	// The cycle estimate is a ratio estimator: merge the sampled epochs
	// into a timeline, then scale its span by the estimated-to-sampled
	// phase-volume ratio. Clamped into the bracket every double-buffer
	// schedule obeys, so the phase-coverage laws hold on the estimate.
	phaseEst, ci95 := stats.StratifiedEstimate(strata)
	sampledCycles, _ := mergeTimeline(runs)
	scale := 1.0
	if sampledPhases > 0 {
		scale = phaseEst / sampledPhases
	}
	total := int64(math.Round(float64(sampledCycles) * scale))
	if floor := max64(memEst, compEst); total < floor {
		total = floor
	}
	if total > memEst+compEst {
		total = memEst + compEst
	}
	res.Cycles = sim.Cycle(total)
	res.MemPhaseCycles = sim.Cycle(memEst)
	res.ComputeCycles = sim.Cycle(compEst)
	res.StallCycles = sim.Cycle(stallEst)

	rel := 0.0
	if phaseEst > 0 {
		rel = ci95 / phaseEst
	}
	lo := int64(math.Round(float64(total) * (1 - rel)))
	if lo < 0 {
		lo = 0
	}
	hi := int64(math.Round(float64(total) * (1 + rel)))
	res.Sampled = &SampleStats{
		Population: len(eps),
		Simulated:  len(sel),
		Seed:       seed,
		TargetCI:   targetCI,
		RelCI95:    rel,
		CyclesLo:   sim.Cycle(lo),
		CyclesHi:   sim.Cycle(hi),
	}
	src.Memory.MaxOccupied = sim.Cycle(total)
	finishEpoched(res, src)
	return res, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
