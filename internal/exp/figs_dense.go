package exp

import (
	"fmt"

	"neummu/internal/core"
	"neummu/internal/energy"
	"neummu/internal/npu"
	"neummu/internal/sim"
	"neummu/internal/spatial"
	"neummu/internal/stats"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// PageDivergenceRow is one bar of Figure 6.
type PageDivergenceRow struct {
	Model    string
	Batch    int
	Avg, Max float64
}

// Fig6 measures the maximum and average number of distinct pages accessed
// per DMA tile fetch under 4 KB pages.
func (h *Harness) Fig6() ([]PageDivergenceRow, error) {
	return gridRows(h, func(model string, batch int) (PageDivergenceRow, error) {
		res, err := h.Oracle(model, batch, vm.Page4K)
		if err != nil {
			return PageDivergenceRow{}, err
		}
		return PageDivergenceRow{
			Model: model, Batch: batch,
			Avg: res.PageDivergence.Mean(),
			Max: res.PageDivergence.Max,
		}, nil
	})
}

// BurstSeries is one panel of Figure 7: translations requested per
// 1000-cycle window.
type BurstSeries struct {
	Model  string
	Series *stats.TimeSeries
}

// Fig7 captures the translation-burst timelines for CNN-1 and RNN-1 at
// batch 1, the two panels of Figure 7.
func (h *Harness) Fig7() ([]BurstSeries, error) {
	models := []string{"CNN-1", "RNN-1"}
	if h.opts.Effort.Quick() {
		models = models[:1]
	}
	return runGrid(h, len(models), func(i int) (BurstSeries, error) {
		model := models[i]
		plan, err := h.plan(model, 1)
		if err != nil {
			return BurstSeries{}, err
		}
		snap, err := h.translations(model, 1, vm.Page4K)
		if err != nil {
			return BurstSeries{}, err
		}
		cfg := h.npuConfig(core.Config{Kind: core.Oracle, PageSize: vm.Page4K})
		cfg.TimelineWindow = 1000
		cfg.Translations = snap
		res, err := h.runNPU(plan, cfg)
		if err != nil {
			return BurstSeries{}, err
		}
		return BurstSeries{Model: model, Series: res.Timeline}, nil
	})
}

// NormPerfRow is one bar of a normalized-performance figure.
type NormPerfRow struct {
	Model string
	Batch int
	Perf  float64
}

// Fig8 measures the baseline IOMMU (2048-entry TLB, 8 PTWs) normalized to
// the oracular MMU with 4 KB pages.
func (h *Harness) Fig8() ([]NormPerfRow, error) {
	rows, _, err := h.NormPerfGrid(core.ConfigFor(core.IOMMU, vm.Page4K))
	return rows, err
}

// SweepRow is one point of a parameter sweep.
type SweepRow struct {
	Param int // slots for Fig10, PTWs for Fig11/12a
	Model string
	Batch int
	Perf  float64
}

// Fig10 sweeps PRMB mergeable slots {1..32} on 8 PTWs with the PTS enabled.
func (h *Harness) Fig10() ([]SweepRow, error) {
	slots := []int{1, 2, 4, 8, 16, 32}
	if h.opts.Effort.Quick() {
		slots = []int{1, 8, 32}
	}
	res, err := h.Sweep(Axes{
		Kinds:     []core.Kind{core.Custom},
		PTWs:      []int{8},
		PRMBSlots: slots,
		Paths:     []walker.PathKind{walker.PathNone},
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(res))
	for i, r := range res {
		rows[i] = SweepRow{Param: r.Point.PRMBSlots, Model: r.Point.Model, Batch: r.Point.Batch, Perf: r.Perf}
	}
	return rows, nil
}

// Fig11 sweeps the PTW count {8..1024} with 32 PRMB slots per walker.
func (h *Harness) Fig11() ([]SweepRow, error) {
	return h.ptwSweep(true)
}

// Fig12a sweeps the PTW count without the PRMB microarchitecture (no PTS,
// no merging: the baseline IOMMU scaled up).
func (h *Harness) Fig12a() ([]SweepRow, error) {
	return h.ptwSweep(false)
}

func (h *Harness) ptwSweep(withPRMB bool) ([]SweepRow, error) {
	ptws := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	if h.opts.Effort.Quick() {
		ptws = []int{8, 128, 1024}
	}
	ax := Axes{
		Kinds: []core.Kind{core.Custom},
		PTWs:  ptws,
		Paths: []walker.PathKind{walker.PathNone},
	}
	if withPRMB {
		ax.PRMBSlots = []int{32}
	} else {
		ax.PRMBSlots = []int{0}
		ax.PTS = []bool{false}
	}
	res, err := h.Sweep(ax)
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(res))
	for i, r := range res {
		rows[i] = SweepRow{Param: r.Point.PTWs, Model: r.Point.Model, Batch: r.Point.Batch, Perf: r.Perf}
	}
	return rows, nil
}

// EnergyPerfRow is one x-axis point of Figure 12b: the [PRMB slots, PTWs]
// design points whose product is constant.
type EnergyPerfRow struct {
	Slots, PTWs int
	Perf        float64 // suite average, normalized to oracle
	Energy      float64 // suite total, normalized to the nominal [32,128]
}

// Fig12b evaluates the energy/performance of [M PRMB, N PTW] design
// points from [512,8] to [1,4096], normalized to the nominal [32,128].
func (h *Harness) Fig12b() ([]EnergyPerfRow, error) {
	// The energy model integrates per-component walker and TLB counters;
	// a remote backend's rows carry headline metrics only, which would
	// make every energy sum a silent zero (and the normalization 0/0).
	if h.opts.Remote != nil {
		return nil, fmt.Errorf("fig12b integrates per-component walker/TLB stats; run it locally (Options.Remote rows carry headline metrics only)")
	}
	pairs := [][2]int{{512, 8}, {256, 16}, {128, 32}, {64, 64}, {32, 128},
		{16, 256}, {8, 512}, {4, 1024}, {2, 2048}, {1, 4096}}
	if h.opts.Effort.Quick() {
		pairs = [][2]int{{512, 8}, {32, 128}, {1, 4096}}
	}
	costs := energy.Default45nm()
	// The [M,N] frontier is not a cartesian product (M·N is constant), so
	// build the point list explicitly and hand it to the engine.
	cells := h.gridCells()
	var points []Point
	for _, p := range pairs {
		for _, c := range cells {
			points = append(points, Point{
				Kind: core.Custom, PageSize: vm.Page4K, Model: c.model, Batch: c.batch,
				PTWs: p[1], PRMBSlots: p[0], PTS: true, Path: walker.PathNone,
			})
		}
	}
	swept, err := h.SweepPoints(points)
	if err != nil {
		return nil, err
	}
	type agg struct {
		perfSum float64
		perfN   int
		energy  float64
	}
	results := make([]agg, len(pairs))
	for k, r := range swept {
		i := k / len(cells)
		results[i].perfSum += r.Perf
		results[i].perfN++
		results[i].energy += energy.Translation(r.Result, costs).Total()
	}
	// Normalize energy to the nominal [32,128] point.
	nominal := 0.0
	for i, p := range pairs {
		if p[0] == 32 && p[1] == 128 {
			nominal = results[i].energy
		}
	}
	if nominal == 0 {
		nominal = results[0].energy
	}
	rows := make([]EnergyPerfRow, len(pairs))
	for i, p := range pairs {
		rows[i] = EnergyPerfRow{
			Slots: p[0], PTWs: p[1],
			Perf:   results[i].perfSum / float64(results[i].perfN),
			Energy: results[i].energy / nominal,
		}
	}
	return rows, nil
}

// TPregRow is one workload's bar group in Figure 13.
type TPregRow struct {
	Model      string
	Batch      int
	L4, L3, L2 float64
}

// Fig13 measures the TPreg tag-match rates at the L4/L3/L2 indices under
// the full NeuMMU configuration.
func (h *Harness) Fig13() ([]TPregRow, error) {
	return gridRows(h, func(model string, batch int) (TPregRow, error) {
		res, err := h.Run(model, batch, core.ConfigFor(core.NeuMMU, vm.Page4K))
		if err != nil {
			return TPregRow{}, err
		}
		l4, l3, l2 := res.Path.Rates()
		return TPregRow{Model: model, Batch: batch, L4: l4, L3: l3, L2: l2}, nil
	})
}

// VATraceRow is one sampled point of Figure 14's virtual-address trace.
type VATraceRow struct {
	Seq  int64
	Tile int
	VA   vm.VirtAddr
}

// Fig14 records the virtual addresses the DMA accesses while fetching the
// first tiles of CNN-1's fc6 layer (the layer whose streaming weight tiles
// the paper plots), reproducing Figure 14's pattern: within a tile the VA
// stream is monotone, across tiles it jumps to the next region.
func (h *Harness) Fig14(tiles int) ([]VATraceRow, error) {
	if tiles <= 0 {
		tiles = 4
	}
	plan, err := h.plan("CNN-1", 1)
	if err != nil {
		return nil, err
	}
	// Restrict to the fc6 layer: streaming weight tiles over a large
	// region, like the trace in the paper's figure.
	var layer workloads.PlannedLayer
	for _, l := range plan.Layers {
		if l.Name == "fc6" {
			layer = l
		}
	}
	truncated := &workloads.Plan{
		Model: plan.Model, Batch: plan.Batch,
		Layers: []workloads.PlannedLayer{{Name: layer.Name, Repeat: 1, Tiles: layer.Tiles}},
		Space:  plan.Space,
	}
	cfg := h.npuConfig(core.Config{Kind: core.Oracle, PageSize: vm.Page4K})
	cfg.TileCap = tiles
	// The truncated plan shares the canonical plan's address space, so the
	// cached snapshot's mapping is valid for it.
	snap, err := h.translations("CNN-1", 1, vm.Page4K)
	if err != nil {
		return nil, err
	}
	cfg.Translations = snap
	var rows []VATraceRow
	seq := int64(0)
	cfg.TraceVAs = func(va vm.VirtAddr, _ sim.Cycle) {
		rows = append(rows, VATraceRow{Seq: seq, VA: va})
		seq++
	}
	if _, err := h.runNPU(truncated, cfg); err != nil {
		return nil, err
	}
	// Annotate tile boundaries: transactions per tile are equal-sized
	// except the last, so recover them from the engine's per-tile counts.
	return rows, nil
}

// LargePageRow compares baseline-IOMMU overhead at 4 KB vs 2 MB pages for
// dense workloads (§VI-A: large pages cut the dense overhead to ≈4%).
type LargePageRow struct {
	Model    string
	Batch    int
	Perf4K   float64
	Perf2M   float64
	NeuMMU2M float64
}

// LargePageDense evaluates §VI-A's dense-workload large-page results.
func (h *Harness) LargePageDense() ([]LargePageRow, error) {
	return gridRows(h, func(model string, batch int) (LargePageRow, error) {
		p4, _, err := h.NormPerf(model, batch, core.ConfigFor(core.IOMMU, vm.Page4K))
		if err != nil {
			return LargePageRow{}, err
		}
		p2, _, err := h.NormPerf(model, batch, core.ConfigFor(core.IOMMU, vm.Page2M))
		if err != nil {
			return LargePageRow{}, err
		}
		n2, _, err := h.NormPerf(model, batch, core.ConfigFor(core.NeuMMU, vm.Page2M))
		if err != nil {
			return LargePageRow{}, err
		}
		return LargePageRow{Model: model, Batch: batch,
			Perf4K: p4, Perf2M: p2, NeuMMU2M: n2}, nil
	})
}

// TLBSweepRow is one point of §III-C's TLB-capacity sweep.
type TLBSweepRow struct {
	Entries int
	Perf    float64 // suite average
}

// TLBSweep grows the IOTLB from 128 entries to 128K on top of the baseline
// 8-PTW IOMMU, reproducing §III-C's finding that even a 64× larger TLB
// recovers almost nothing.
func (h *Harness) TLBSweep() ([]TLBSweepRow, error) {
	sizes := []int{128, 512, 2048, 8192, 32768, 131072}
	if h.opts.Effort.Quick() {
		sizes = []int{2048, 131072}
	}
	res, err := h.Sweep(Axes{
		Kinds:      []core.Kind{core.Custom},
		PTWs:       []int{8},
		PRMBSlots:  []int{0},
		PTS:        []bool{false},
		Paths:      []walker.PathKind{walker.PathNone},
		TLBEntries: sizes,
	})
	if err != nil {
		return nil, err
	}
	cellsPerSize := len(res) / len(sizes)
	rows := make([]TLBSweepRow, len(sizes))
	for k, r := range res {
		i := k / cellsPerSize
		rows[i].Entries = r.Point.TLBEntries
		rows[i].Perf += r.Perf / float64(cellsPerSize)
	}
	return rows, nil
}

// SpatialRow compares the NeuMMU gap on the spatial-array NPU (§VI-B).
type SpatialRow struct {
	Model  string
	Batch  int
	IOMMU  float64
	NeuMMU float64
}

// SpatialNPU reruns the suite on the DaDianNao/Eyeriss-style compute
// model, checking that NeuMMU still closes the IOMMU gap (§VI-B reports
// an average 2% residual overhead).
func (h *Harness) SpatialNPU() ([]SpatialRow, error) {
	return gridRows(h, func(model string, batch int) (SpatialRow, error) {
		plan, err := h.plan(model, batch)
		if err != nil {
			return SpatialRow{}, err
		}
		snap, err := h.translations(model, batch, vm.Page4K)
		if err != nil {
			return SpatialRow{}, err
		}
		run := func(kind core.Kind) (*npu.Result, error) {
			cfg := h.npuConfig(core.ConfigFor(kind, vm.Page4K))
			cfg.Compute = spatial.Baseline()
			if kind == core.Oracle {
				cfg.MMU = core.Config{Kind: core.Oracle, PageSize: vm.Page4K}
			}
			cfg.Translations = snap
			return h.runNPU(plan, cfg)
		}
		oracle, err := run(core.Oracle)
		if err != nil {
			return SpatialRow{}, err
		}
		io, err := run(core.IOMMU)
		if err != nil {
			return SpatialRow{}, err
		}
		neu, err := run(core.NeuMMU)
		if err != nil {
			return SpatialRow{}, err
		}
		return SpatialRow{Model: model, Batch: batch,
			IOMMU: io.NormalizedPerf(oracle), NeuMMU: neu.NormalizedPerf(oracle)}, nil
	})
}

// SensitivityRow is one large-batch common-layer result (§VI-C).
type SensitivityRow struct {
	Model  string
	Batch  int
	IOMMU  float64
	NeuMMU float64
}

// Sensitivity evaluates the common layer of each network at large batch
// sizes (32/64/128), as §VI-C does for training-scale batches.
func (h *Harness) Sensitivity() ([]SensitivityRow, error) {
	batches := []int{32, 64, 128}
	if h.opts.Effort.Quick() {
		batches = []int{32}
	}
	// The cells use common-layer plans at training-scale batches, outside
	// the harness's plan cache, so flatten the (model, batch) product and
	// let each cell build its own plan on the pool.
	type cell struct {
		model string
		batch int
	}
	var cells []cell
	for _, model := range h.opts.Models {
		for _, b := range batches {
			cells = append(cells, cell{model, b})
		}
	}
	return runGrid(h, len(cells), func(i int) (SensitivityRow, error) {
		model, b := cells[i].model, cells[i].batch
		m, err := workloads.CommonLayer(model)
		if err != nil {
			return SensitivityRow{}, err
		}
		plan, err := workloads.BuildPlan(m, b, workloads.DefaultTiles())
		if err != nil {
			return SensitivityRow{}, err
		}
		// Common-layer plans live outside the snapshot cache, but the
		// cell's three runs can still share one privately built snapshot.
		snap := npu.BuildTranslations(plan, vm.Page4K)
		run := func(kind core.Kind) (*npu.Result, error) {
			cfg := h.npuConfig(core.ConfigFor(kind, vm.Page4K))
			if kind == core.Oracle {
				cfg.MMU = core.Config{Kind: core.Oracle, PageSize: vm.Page4K}
			}
			cfg.Translations = snap
			return h.runNPU(plan, cfg)
		}
		oracle, err := run(core.Oracle)
		if err != nil {
			return SensitivityRow{}, err
		}
		io, err := run(core.IOMMU)
		if err != nil {
			return SensitivityRow{}, err
		}
		neu, err := run(core.NeuMMU)
		if err != nil {
			return SensitivityRow{}, err
		}
		return SensitivityRow{Model: model, Batch: b,
			IOMMU: io.NormalizedPerf(oracle), NeuMMU: neu.NormalizedPerf(oracle)}, nil
	})
}

// Summary reproduces §IV-D's headline numbers.
type Summary struct {
	IOMMUAvgPerf    float64 // baseline normalized performance (≈0.05)
	NeuMMUAvgPerf   float64 // NeuMMU normalized performance (≈0.9994)
	NeuMMUOverhead  float64 // 1 − NeuMMUAvgPerf (paper: 0.06%)
	EnergyRatio     float64 // IOMMU energy / NeuMMU energy (paper: 16.3×)
	WalkAccessRatio float64 // IOMMU walk DRAM reads / NeuMMU's (paper: 18.8×)
}

// RunSummary computes the paper's §IV-D headline comparison across the
// configured suite.
func (h *Harness) RunSummary() (Summary, error) {
	costs := energy.Default45nm()
	type cellStats struct {
		pIO, pNeu           float64
		ioEnergy, neuEnergy float64
		ioWalkMem, neuWalk  int64
	}
	cells, err := gridRows(h, func(model string, batch int) (cellStats, error) {
		pIO, rIO, err := h.NormPerf(model, batch, core.ConfigFor(core.IOMMU, vm.Page4K))
		if err != nil {
			return cellStats{}, err
		}
		pNeu, rNeu, err := h.NormPerf(model, batch, core.ConfigFor(core.NeuMMU, vm.Page4K))
		if err != nil {
			return cellStats{}, err
		}
		return cellStats{
			pIO: pIO, pNeu: pNeu,
			ioEnergy:  energy.Translation(rIO, costs).Total(),
			neuEnergy: energy.Translation(rNeu, costs).Total(),
			ioWalkMem: rIO.Walker.WalkMemAccesses,
			neuWalk:   rNeu.Walker.WalkMemAccesses,
		}, nil
	})
	if err != nil {
		return Summary{}, err
	}
	var s Summary
	var ioEnergy, neuEnergy float64
	var ioWalkMem, neuWalkMem int64
	n := len(cells)
	for _, c := range cells {
		s.IOMMUAvgPerf += c.pIO
		s.NeuMMUAvgPerf += c.pNeu
		ioEnergy += c.ioEnergy
		neuEnergy += c.neuEnergy
		ioWalkMem += c.ioWalkMem
		neuWalkMem += c.neuWalk
	}
	s.IOMMUAvgPerf /= float64(n)
	s.NeuMMUAvgPerf /= float64(n)
	s.NeuMMUOverhead = 1 - s.NeuMMUAvgPerf
	if neuEnergy > 0 {
		s.EnergyRatio = ioEnergy / neuEnergy
	}
	if neuWalkMem > 0 {
		s.WalkAccessRatio = float64(ioWalkMem) / float64(neuWalkMem)
	}
	return s, nil
}
