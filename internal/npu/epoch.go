// Epochs, the merge recurrence, and the cold-epoch machines of sampled
// mode (Config.Sampled).
//
// The planner tags natural barriers in the tile schedule
// (workloads.Tile.Epoch: one weight/KV block for conv, GEMM and encoder
// attention; one decode step for autoregressive attention; one repeat
// for layers without weight reuse). An epoch is one contiguous run of
// the capped schedule between two barriers. Every mode runs epochs on
// the machine of npu.go:
//
//   - Exact runs (the default, and every run with observers) take the
//     serial schedule: all epochs in order on one machine, so MMU, TLB,
//     path-cache, memory and double-buffer state carry from each epoch
//     to the next.
//   - Sampled runs simulate a seeded subset of the epochs, each on a
//     cold machine seeded from the shared frozen translation snapshot,
//     one after another (runCold). Cold epochs exist only here.
//
// Each machine records its tiles' memory-phase and compute-phase
// durations, and assembly merges them by replaying the paper's
// double-buffer recurrence over the schedule:
//
//	fetchStart[i]  = max(memEnd[i-1], computeDone[i-2])
//	memEnd[i]      = fetchStart[i] + D[i]
//	computeDone[i] = max(memEnd[i], computeDone[i-1]) + cc[i]
//
// The merge law: one machine starts each fetch at exactly fetchStart[i],
// because its DMA serializes memory phases and its queue is idle between
// tiles, so the recurrence over its own durations reproduces its
// event-driven end and its last memory-phase end (TestMergeLaw checks
// both). The merge is pure arithmetic in schedule order. Merged cold
// epochs differ from the serial schedule only because each cold epoch
// starts with empty TLBs and path caches, which is why sampled cells
// carry their own cell key in serve and cluster.
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

	"neummu/internal/counters"
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

// epoch is one contiguous run of the capped tile schedule. It refers to
// the plan's tiles without copying them: position p of the layer's
// repeated schedule is layerTiles[p%len(layerTiles)], and the epoch
// covers positions [lo, hi).
type epoch struct {
	layer      int // index into plan.Layers — also the sampling stratum
	layerTiles []workloads.Tile
	lo, hi     int
}

// eachEpoch applies the repeat/tile caps and calls fn with every epoch
// of the capped schedule, in order. It splits whenever the planner's
// Tile.Epoch tag changes, and additionally at repeat boundaries for
// layers whose repeats do not share a weight set.
func eachEpoch(plan *workloads.Plan, repeatCap, tileCap int, fn func(epoch) error) error {
	for li := range plan.Layers {
		layer := &plan.Layers[li]
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
		ep := epoch{layer: li, layerTiles: tiles}
		for p := 1; p < times*len(tiles); p++ {
			ti := p % len(tiles)
			if (ti == 0 && !layer.WeightReuse) || tiles[ti].Epoch != tiles[(p-1)%len(tiles)].Epoch {
				ep.hi = p
				if err := fn(ep); err != nil {
					return err
				}
				ep.lo = p
			}
		}
		ep.hi = times * len(tiles)
		if err := fn(ep); err != nil {
			return err
		}
	}
	return nil
}

// buildEpochs lists the epochs eachEpoch visits.
func buildEpochs(plan *workloads.Plan, repeatCap, tileCap int) []epoch {
	var eps []epoch
	// The collector never fails, so neither does the walk.
	_ = eachEpoch(plan, repeatCap, tileCap, func(ep epoch) error {
		eps = append(eps, ep)
		return nil
	})
	return eps
}

// tileDurs is one tile's memory-phase and compute-phase duration.
type tileDurs struct{ mem, compute sim.Cycle }

// epochRun is what a machine reports (see machine.finish): the per-tile
// phase durations the merge replays, their totals and the machine's
// component stats. Assembly sums runs into one epochRun without durs.
type epochRun struct {
	durs []tileDurs

	memPhase, compute, stall sim.Cycle
	translations, bytes      int64
	tiles                    int
	pageDiv                  stats.Dist
	src                      counters.Sources // Cycles left zero; assembly fills it
}

// volume returns the run's total phase volume (its sampling value).
func (r *epochRun) volume() float64 {
	return float64(r.memPhase) + float64(r.compute)
}

// add folds b's totals and stats into r.
func (r *epochRun) add(b *epochRun) {
	r.memPhase += b.memPhase
	r.compute += b.compute
	r.stall += b.stall
	r.translations += b.translations
	r.bytes += b.bytes
	r.tiles += b.tiles
	r.pageDiv.Merge(b.pageDiv)
	r.src = addSources(r.src, b.src)
}

// result builds the Result whose end-to-end time is cycles, collecting
// the audited counter bundle from r's stats.
func (r *epochRun) result(plan *workloads.Plan, cfg Config, cycles sim.Cycle) *Result {
	src := r.src
	src.Cycles = counters.CycleStats{
		Total:    int64(cycles),
		MemPhase: int64(r.memPhase),
		Compute:  int64(r.compute),
		Stall:    int64(r.stall),
	}
	return &Result{
		Model:          plan.Model,
		Batch:          plan.Batch,
		Compute:        cfg.Compute.Name(),
		MMUKind:        cfg.MMU.Kind,
		Cycles:         cycles,
		MemPhaseCycles: r.memPhase,
		ComputeCycles:  r.compute,
		StallCycles:    r.stall,
		Tiles:          r.tiles,
		Translations:   r.translations,
		BytesFetched:   r.bytes,
		PageDivergence: r.pageDiv,
		MMU:            src.MMU,
		TLB:            src.TLB,
		Walker:         src.Walker,
		Path:           src.Path,
		Memory:         src.Memory,
		Counters:       counters.Collect(src),
	}
}

// mergeTimeline replays the double-buffer recurrence over the per-tile
// phase durations of runs, in schedule order, returning the end-to-end
// cycle count and the end of the last memory phase. done1 and done2 are
// computeDone[i-1] and computeDone[i-2].
func mergeTimeline(runs []*epochRun) (cycles, lastMem sim.Cycle) {
	var memEnd, done1, done2 sim.Cycle
	for _, r := range runs {
		for _, t := range r.durs {
			memEnd = max(memEnd, done2) + t.mem
			done1, done2 = max(memEnd, done1)+t.compute, done1
		}
	}
	return max(memEnd, done1), memEnd
}

// assemble merges runs, given in schedule order, into the Result: it
// sums them, times the schedule with mergeTimeline and collects the
// counter bundle. The runs' memory channels are last busy at the final
// memory-phase end on the merged timeline (a cold machine's occupancy
// timestamps are local to its own queue).
func assemble(plan *workloads.Plan, cfg Config, runs []*epochRun) *Result {
	var sum epochRun
	for _, r := range runs {
		sum.add(r)
	}
	cycles, lastMem := mergeTimeline(runs)
	sum.src.Memory.MaxOccupied = lastMem
	return sum.result(plan, cfg, cycles)
}

// runCold simulates each epoch on its own cold machine, one after
// another, and returns the runs in eps' order.
func runCold(plan *workloads.Plan, cfg Config, snap *vm.Snapshot, eps []epoch) ([]*epochRun, error) {
	runs := make([]*epochRun, len(eps))
	for i, ep := range eps {
		m := newMachine(plan, cfg, snap)
		if err := m.run(ep); err != nil {
			return nil, err
		}
		runs[i] = m.finish()
	}
	return runs, nil
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

	a.DMA.Tiles += b.DMA.Tiles
	a.DMA.Segments += b.DMA.Segments
	a.DMA.Transactions += b.DMA.Transactions
	a.DMA.Bytes += b.DMA.Bytes
	a.DMA.DistinctPages += b.DMA.DistinctPages
	return a
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
	return o
}

// runSampled simulates the seeded stratified subset of eps and scales
// the outcome up to a population estimate with a 95% CI.
func runSampled(plan *workloads.Plan, cfg Config, snap *vm.Snapshot, eps []epoch) (*Result, error) {
	targetCI := cfg.SampleTargetCI
	if targetCI <= 0 {
		targetCI = 0.05
	}
	seed := sampleSeed(plan, cfg, targetCI)
	sel := sampleEpochs(eps, seed, targetCI)
	sub := make([]epoch, len(sel))
	for i, e := range sel {
		sub[i] = eps[e]
	}
	runs, err := runCold(plan, cfg, snap, sub)
	if err != nil {
		return nil, err
	}

	// Walk the sample stratum by stratum (sel is sorted, and epochs of
	// one layer are contiguous), scaling each stratum's totals by its
	// weight and accumulating the CI inputs.
	var est epochRun
	var strata []stats.Stratum
	var sampledVolume float64
	for lo := 0; lo < len(sub); {
		layer := sub[lo].layer
		hi := lo
		for hi < len(sub) && sub[hi].layer == layer {
			hi++
		}
		population := 0
		for _, ep := range eps {
			if ep.layer == layer {
				population++
			}
		}
		st := stats.Stratum{Population: population}
		var sum epochRun
		for _, r := range runs[lo:hi] {
			st.Values = append(st.Values, r.volume())
			sampledVolume += r.volume()
			sum.add(r)
		}
		w := float64(population) / float64(hi-lo)
		mem := sim.Cycle(scaleCount(int64(sum.memPhase), w))
		est.add(&epochRun{
			memPhase:     mem,
			compute:      sim.Cycle(scaleCount(int64(sum.compute), w)),
			stall:        min(sim.Cycle(scaleCount(int64(sum.stall), w)), mem),
			translations: scaleCount(sum.translations, w),
			bytes:        scaleCount(sum.bytes, w),
			tiles:        int(scaleCount(int64(sum.tiles), w)),
			pageDiv:      sum.pageDiv,
			src:          scaleSources(sum.src, w),
		})
		strata = append(strata, st)
		lo = hi
	}

	// The cycle estimate is a ratio estimator: merge the sampled epochs
	// into a timeline, then scale its span by the estimated-to-sampled
	// phase-volume ratio. Clamped into the bracket every double-buffer
	// schedule obeys, so the phase-coverage laws hold on the estimate.
	volumeEst, ci95 := stats.StratifiedEstimate(strata)
	sampledCycles, _ := mergeTimeline(runs)
	scale := 1.0
	if sampledVolume > 0 {
		scale = volumeEst / sampledVolume
	}
	total := sim.Cycle(math.Round(float64(sampledCycles) * scale))
	total = min(max(total, est.memPhase, est.compute), est.memPhase+est.compute)

	rel := 0.0
	if volumeEst > 0 {
		rel = ci95 / volumeEst
	}
	est.src.Memory.MaxOccupied = total
	res := est.result(plan, cfg, total)
	res.Sampled = &SampleStats{
		Population: len(eps),
		Simulated:  len(sel),
		Seed:       seed,
		TargetCI:   targetCI,
		RelCI95:    rel,
		CyclesLo:   max(sim.Cycle(math.Round(float64(total)*(1-rel))), 0),
		CyclesHi:   sim.Cycle(math.Round(float64(total) * (1 + rel))),
	}
	return res, nil
}
