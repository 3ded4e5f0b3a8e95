package exp

import (
	"neummu/internal/core"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// PathCacheRow compares the translation-path caching microarchitectures
// of §IV-C: no caching, the per-walker TPreg, an Intel-style shared TPC,
// and an AMD-style unified page-table cache (UPTC).
type PathCacheRow struct {
	Kind walker.PathKind
	// L4/L3/L2 are suite-average tag-match rates; WalkMemPerWalk is the
	// average page-table node reads per walk (4.0 with no caching).
	L4, L3, L2     float64
	WalkMemPerWalk float64
	Perf           float64
}

// PathCacheStudy reproduces the §IV-C design-space comparison. The paper
// reports TPC tag hit rates of 99.5/99.5/63.1 % versus 92.4 % for UPTC,
// concluding that a single path register per walker captures most of the
// benefit — the TPreg proposal.
func (h *Harness) PathCacheStudy() ([]PathCacheRow, error) {
	kinds := []walker.PathKind{walker.PathNone, walker.PathTPreg, walker.PathTPC, walker.PathUPTC}
	// One engine sweep over the path-kind × (model, batch) product; the
	// per-kind aggregation happens on the ordered rows afterwards.
	res, err := h.Sweep(Axes{
		Kinds: []core.Kind{core.Custom},
		Paths: kinds,
	})
	if err != nil {
		return nil, err
	}
	perKind := len(res) / len(kinds)
	rows := make([]PathCacheRow, len(kinds))
	for i, kind := range kinds {
		agg := &rows[i]
		agg.Kind = kind
		var walks, mem int64
		for _, r := range res[i*perKind : (i+1)*perKind] {
			rl4, rl3, rl2 := r.Result.Path.Rates()
			agg.L4 += rl4
			agg.L3 += rl3
			agg.L2 += rl2
			agg.Perf += r.Perf
			walks += r.Result.Walker.WalksStarted
			mem += r.Result.Walker.WalkMemAccesses
		}
		n := float64(perKind)
		agg.L4, agg.L3, agg.L2, agg.Perf = agg.L4/n, agg.L3/n, agg.L2/n, agg.Perf/n
		if walks > 0 {
			agg.WalkMemPerWalk = float64(mem) / float64(walks)
		}
	}
	return rows, nil
}

// MultiTenantRow is one point of the IOMMU-sharing study: the paper notes
// (§IV-B) that the IOMMU is shared among accelerators and that walker
// provisioning must leave headroom. We model a co-tenant that keeps a
// fixed fraction of the walkers permanently busy and measure the NPU's
// degradation.
type MultiTenantRow struct {
	StolenPTWs int
	Perf       float64
}

// MultiTenant evaluates NeuMMU with part of the walker pool consumed by a
// co-located accelerator.
func (h *Harness) MultiTenant() ([]MultiTenantRow, error) {
	fractions := []int{0, 32, 64, 96, 112, 120, 124, 126}
	if h.opts.Effort.Quick() {
		fractions = []int{0, 112, 126}
	}
	remaining := make([]int, len(fractions))
	for i, stolen := range fractions {
		remaining[i] = 128 - stolen
	}
	res, err := h.Sweep(Axes{
		Kinds: []core.Kind{core.Custom},
		PTWs:  remaining,
	})
	if err != nil {
		return nil, err
	}
	perPoint := len(res) / len(fractions)
	rows := make([]MultiTenantRow, len(fractions))
	for k, r := range res {
		i := k / perPoint
		rows[i].StolenPTWs = fractions[i]
		rows[i].Perf += r.Perf / float64(perPoint)
	}
	return rows, nil
}

// BurstThrottleRow is one point of the §III-C counter-argument study: a
// DMA that limits its issue rate to restore TLB effectiveness also
// destroys memory-level parallelism.
type BurstThrottleRow struct {
	IssueInterval int // cycles between translations
	Perf          float64
}

// BurstThrottle evaluates the paper's rejected alternative: throttling the
// DMA so the baseline IOMMU can keep up. Implemented by scaling the
// workload's effective issue rate through the walker queue depth.
func (h *Harness) BurstThrottle() ([]BurstThrottleRow, error) {
	// Model throttling as shrinking the IOMMU's pending queue: a depth-1
	// queue admits one outstanding miss, serializing translations the way
	// an issue-throttled DMA would.
	depths := []int{1, 4, 16, 64}
	if h.opts.Effort.Quick() {
		depths = []int{1, 16}
	}
	// QueueDepth is not a sweep axis, so run one engine grid per depth
	// (the grid itself fans out over the pool).
	var rows []BurstThrottleRow
	for _, d := range depths {
		cfg := customMMU(vm.Page4K, 8, 0, false, walker.PathNone, 0)
		cfg.Walker.QueueDepth = d
		grid, _, err := h.NormPerfGrid(cfg)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, g := range grid {
			sum += g.Perf
		}
		rows = append(rows, BurstThrottleRow{IssueInterval: d, Perf: sum / float64(len(grid))})
	}
	return rows, nil
}
