package npu

import (
	"testing"

	"neummu/internal/core"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// BenchmarkRunCell times one exact npu.Run cell (the serial schedule on
// one machine): the host cost of
// the simulator below the experiment harness, with the plan and the
// translation snapshot built once outside the timer as the cell cache's
// callers do. TF-2 decode is the translation-bound extreme (millions of
// translations at a low TLB hit rate); CNN-2 is a dense conv network.
// RNN-2 on NeuMMU and CNN-1 on a 64-PTW × 4-slot custom walker are
// dense-cold's walker-heavy shapes: their misses merge into PRMBs and
// drain one per cycle, and the custom PRMBs overflow into redundant walks.
// ns/xlat divides the time by the cell's DMA translations, so cells of
// different sizes compare on one scale; events/xlat divides the queue
// events the cell fired (Result.Events) the same way.
func BenchmarkRunCell(b *testing.B) {
	cells := []struct {
		name      string
		model     string
		batch     int
		repeatCap int
		kind      core.Kind
		ptws      int // custom walker shape, with prmb
		prmb      int
	}{
		{"TF-2-b1-oracle", "TF-2", 1, 1, core.Oracle, 0, 0},
		{"TF-2-b1-iommu", "TF-2", 1, 1, core.IOMMU, 0, 0},
		{"TF-2-b1-neummu", "TF-2", 1, 1, core.NeuMMU, 0, 0},
		{"CNN-2-b4-iommu", "CNN-2", 4, 3, core.IOMMU, 0, 0},
		{"RNN-2-b4-neummu", "RNN-2", 4, 3, core.NeuMMU, 0, 0},
		{"CNN-1-b8-custom-64x4", "CNN-1", 8, 3, core.Custom, 64, 4},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			m, err := workloads.ByName(c.model)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := workloads.BuildPlan(m, c.batch, workloads.DefaultTiles())
			if err != nil {
				b.Fatal(err)
			}
			cfg := baseCfg(c.kind)
			if c.kind == core.Custom {
				cfg.MMU = core.Config{
					Kind: core.Custom, PageSize: vm.Page4K, TLB: tlb.Baseline(vm.Page4K),
					Walker: walker.Config{
						NumPTWs: c.ptws, PRMBSlots: c.prmb, UsePTS: true, LevelLatency: 100,
						Path: walker.PathTPreg, PageSize: vm.Page4K,
					},
				}
			}
			cfg.RepeatCap = c.repeatCap
			cfg.Translations = BuildTranslations(plan, vm.Page4K)
			var xlats, events int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(plan, cfg)
				if err != nil {
					b.Fatal(err)
				}
				xlats += res.Translations
				events += res.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(xlats), "ns/xlat")
			b.ReportMetric(float64(events)/float64(xlats), "events/xlat")
		})
	}
}
