package exp

import (
	"testing"

	"neummu/internal/core"
	"neummu/internal/vm"
)

// quickHarness keeps exp tests fast: two models, one batch, capped tiles.
func quickHarness() *Harness {
	return New(Options{Effort: Effort{Mode: EffortQuick}})
}

func TestOptionsNormalization(t *testing.T) {
	full := New(Options{}).Options()
	if len(full.Models) != 6 || len(full.Batches) != 3 {
		t.Fatalf("full defaults = %+v", full)
	}
	quick := New(Options{Effort: Effort{Mode: EffortQuick}}).Options()
	if len(quick.Models) != 2 || quick.TileCap == 0 {
		t.Fatalf("quick defaults = %+v", quick)
	}
	// The flat caps are read-outs: normalized options round-trip, and a
	// caller setting them as inputs is told to use Effort instead.
	if again := New(quick).Options(); again.RepeatCap != quick.RepeatCap || again.TileCap != quick.TileCap {
		t.Errorf("normalized options did not round-trip: %+v then %+v", quick, again)
	}
	defer func() {
		if recover() == nil {
			t.Error("Options{RepeatCap: 1} was accepted as an input")
		}
	}()
	New(Options{RepeatCap: 1})
}

func TestOracleMemoized(t *testing.T) {
	h := quickHarness()
	a, err := h.Oracle("CNN-1", 4, vm.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Oracle("CNN-1", 4, vm.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("oracle run not memoized")
	}
}

func TestFig6Shape(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 2 models × 1 batch in quick mode
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Max < r.Avg || r.Avg <= 0 {
			t.Fatalf("row %+v", r)
		}
		// Multi-MB tiles must touch hundreds of 4K pages.
		if r.Max < 100 {
			t.Fatalf("%s max divergence %v, want ≥ 100", r.Model, r.Max)
		}
	}
}

func TestFig7Bursty(t *testing.T) {
	h := quickHarness()
	series, err := h.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no series")
	}
	s := series[0].Series
	if s.Peak() < 900 {
		t.Fatalf("peak %d translations/1000cy, want near-saturated bursts", s.Peak())
	}
}

func TestFig8IOMMUOverheadLarge(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Perf <= 0 || r.Perf >= 0.6 {
			t.Fatalf("%s b%02d baseline perf = %v, want well below oracle", r.Model, r.Batch, r.Perf)
		}
	}
}

func TestFig10MorePRMBHelps(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	perf := map[int]float64{}
	n := map[int]int{}
	for _, r := range rows {
		perf[r.Param] += r.Perf
		n[r.Param]++
	}
	if perf[32]/float64(n[32]) < perf[1]/float64(n[1]) {
		t.Fatalf("PRMB(32) avg %v not better than PRMB(1) %v",
			perf[32]/float64(n[32]), perf[1]/float64(n[1]))
	}
}

func TestFig11MorePTWsHelp(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	avg := map[int]float64{}
	n := map[int]int{}
	for _, r := range rows {
		avg[r.Param] += r.Perf
		n[r.Param]++
	}
	lo := avg[8] / float64(n[8])
	hi := avg[128] / float64(n[128])
	if hi <= lo {
		t.Fatalf("128 PTWs (%v) not better than 8 (%v)", hi, lo)
	}
	if hi < 0.9 {
		t.Fatalf("128 PTWs + PRMB(32) reaches only %v of oracle, want ≥ 0.9", hi)
	}
}

func TestFig12bEnergyShape(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig12b()
	if err != nil {
		t.Fatal(err)
	}
	var nominal, extreme EnergyPerfRow
	for _, r := range rows {
		if r.Slots == 32 && r.PTWs == 128 {
			nominal = r
		}
		if r.Slots == 1 {
			extreme = r
		}
	}
	if nominal.Energy != 1.0 {
		t.Fatalf("nominal energy = %v, want normalized to 1", nominal.Energy)
	}
	// Fig 12b: starving the PRMB while flooding PTWs burns energy on
	// redundant walks (paper: up to 7.1×).
	if extreme.Energy < 1.5 {
		t.Fatalf("[1,4096] energy = %v× nominal, want a clear penalty", extreme.Energy)
	}
}

func TestFig13TPregRates(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.L4 >= r.L3 && r.L3 >= r.L2) {
			t.Fatalf("rates not monotone: %+v", r)
		}
		if r.L4 < 0.9 {
			t.Fatalf("%s L4 rate %v, want ≥ 0.9 (paper: 99.5%%)", r.Model, r.L4)
		}
	}
}

func TestFig14TraceMonotoneWithinTile(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig14(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 100 {
		t.Fatalf("only %d trace points", len(rows))
	}
	// The weight stream is monotone for long stretches: count resets.
	resets := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].VA < rows[i-1].VA {
			resets++
		}
	}
	if resets > 4 {
		t.Fatalf("%d VA resets in a streaming trace, want ≤ tile count", resets)
	}
}

func TestSummaryHeadline(t *testing.T) {
	h := quickHarness()
	s, err := h.RunSummary()
	if err != nil {
		t.Fatal(err)
	}
	if s.NeuMMUAvgPerf < 0.97 {
		t.Fatalf("NeuMMU avg perf = %v, want ≥ 0.97 (paper: 0.9994)", s.NeuMMUAvgPerf)
	}
	if s.IOMMUAvgPerf > 0.5 {
		t.Fatalf("IOMMU avg perf = %v, want large overhead (paper: 0.05)", s.IOMMUAvgPerf)
	}
	if s.EnergyRatio < 2 {
		t.Fatalf("energy ratio = %v, want IOMMU ≫ NeuMMU (paper: 16.3×)", s.EnergyRatio)
	}
	if s.WalkAccessRatio < 2 {
		t.Fatalf("walk traffic ratio = %v (paper: 18.8×)", s.WalkAccessRatio)
	}
}

func TestTLBSweepFlat(t *testing.T) {
	h := quickHarness()
	rows, err := h.TLBSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("%d rows", len(rows))
	}
	small, big := rows[0].Perf, rows[len(rows)-1].Perf
	// §III-C: even 64× more TLB entries recover almost nothing.
	if big-small > 0.10 {
		t.Fatalf("TLB scaling recovered %v of performance: bursts should defeat TLBs", big-small)
	}
}

func TestLargePageDenseRecovers(t *testing.T) {
	h := quickHarness()
	rows, err := h.LargePageDense()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Perf2M <= r.Perf4K {
			t.Fatalf("%s b%02d: 2MB pages (%v) not better than 4KB (%v) on dense",
				r.Model, r.Batch, r.Perf2M, r.Perf4K)
		}
		if r.NeuMMU2M < 0.95 {
			t.Fatalf("NeuMMU with 2MB pages = %v, want ≈1", r.NeuMMU2M)
		}
	}
}

func TestSpatialNPUGapCloses(t *testing.T) {
	h := quickHarness()
	rows, err := h.SpatialNPU()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NeuMMU <= r.IOMMU {
			t.Fatalf("%s: NeuMMU %v not better than IOMMU %v on spatial NPU",
				r.Model, r.NeuMMU, r.IOMMU)
		}
		if r.NeuMMU < 0.9 {
			t.Fatalf("%s: spatial NeuMMU perf %v, want ≥ 0.9 (paper: ≈0.98)", r.Model, r.NeuMMU)
		}
	}
}

func TestSensitivityLargeBatch(t *testing.T) {
	h := quickHarness()
	rows, err := h.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NeuMMU < 0.9 {
			t.Fatalf("%s b%02d NeuMMU = %v, want ≥ 0.9 (paper: 99.9%%)", r.Model, r.Batch, r.NeuMMU)
		}
		if r.IOMMU >= r.NeuMMU {
			t.Fatalf("%s b%02d: IOMMU %v ≥ NeuMMU %v", r.Model, r.Batch, r.IOMMU, r.NeuMMU)
		}
	}
}

func TestFig15BaselineLosesToNUMA(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]Fig15Row{}
	for _, r := range rows {
		byMode[r.Mode.String()] = r
	}
	base := byMode["baseline"]
	fast := byMode["numa-fast"]
	slow := byMode["numa-slow"]
	if base.Total != 1.0 {
		t.Fatalf("baseline not normalized to 1: %v", base.Total)
	}
	if !(fast.Total < slow.Total && slow.Total < base.Total) {
		t.Fatalf("mode ordering wrong: fast=%v slow=%v base=%v",
			fast.Total, slow.Total, base.Total)
	}
	// §V: NUMA cuts latency by 31% (slow) and 71% (fast) on average.
	if fast.Total > 0.6 {
		t.Fatalf("NUMA(fast) total = %v of baseline, want large reduction", fast.Total)
	}
	if base.Embedding < 0.5 {
		t.Fatalf("baseline embedding share = %v, want dominant", base.Embedding)
	}
}

func TestFig16SmallPagesWin(t *testing.T) {
	h := quickHarness()
	rows, err := h.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	find := func(ps vm.PageSize, kind core.Kind) Fig16Row {
		for _, r := range rows {
			if r.PageSize == ps && r.MMU == kind {
				return r
			}
		}
		t.Fatalf("missing row %v/%v", ps, kind)
		return Fig16Row{}
	}
	neu4k := find(vm.Page4K, core.NeuMMU)
	io4k := find(vm.Page4K, core.IOMMU)
	neu2m := find(vm.Page2M, core.NeuMMU)
	if neu4k.Perf <= io4k.Perf {
		t.Fatalf("NeuMMU 4K (%v) not better than IOMMU 4K (%v)", neu4k.Perf, io4k.Perf)
	}
	if neu4k.Perf < 0.7 {
		t.Fatalf("NeuMMU 4K demand paging perf = %v, want ≈0.96", neu4k.Perf)
	}
	// Fig 16: large pages cannot be recovered even by NeuMMU.
	if neu2m.Perf >= neu4k.Perf {
		t.Fatalf("2MB demand paging (%v) should lose to 4KB (%v)", neu2m.Perf, neu4k.Perf)
	}
}
