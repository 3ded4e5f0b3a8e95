// Benchmarks: one per table/figure of the paper's evaluation. Each bench
// re-runs a reduced ("quick") version of the corresponding experiment and
// reports the headline metric through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the simulator and re-measures every result's shape. Full
// sweeps are regenerated with cmd/paperfigs (no -quick flag); the measured
// values are recorded in EXPERIMENTS.md.
package neummu

import (
	"testing"

	"neummu/internal/exp"
)

func quick() *exp.Harness { return exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}}) }

// BenchmarkTable1Config exercises the Table I configuration end to end:
// one dense workload on the fully configured baseline NPU.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Simulate("CNN-1", 1, ThroughputNeuMMU, Options{Effort: Effort{RepeatCap: 2, TileCap: 6}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "simcycles")
	}
}

// BenchmarkFig6PageDivergence measures distinct pages per DMA tile.
func BenchmarkFig6PageDivergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig6()
		if err != nil {
			b.Fatal(err)
		}
		var maxDiv float64
		for _, r := range rows {
			if r.Max > maxDiv {
				maxDiv = r.Max
			}
		}
		b.ReportMetric(maxDiv, "max_pages/tile")
	}
}

// BenchmarkFig7TranslationBursts measures the peak translation rate per
// 1000-cycle window.
func BenchmarkFig7TranslationBursts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := quick().Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(series[0].Series.Peak()), "peak_xlat/1kcy")
	}
}

// BenchmarkFig8BaselineIOMMU measures the baseline IOMMU's normalized
// performance (paper: ≈0.05 average).
func BenchmarkFig8BaselineIOMMU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig8()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.Perf
		}
		b.ReportMetric(sum/float64(len(rows)), "norm_perf")
	}
}

// BenchmarkFig10PRMBSweep measures normalized performance with 32 PRMB
// slots on 8 walkers (the sweep's right edge; paper: ≈0.11 average).
func BenchmarkFig10PRMBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig10()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range rows {
			if r.Param == 32 {
				sum += r.Perf
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "norm_perf@32slots")
	}
}

// BenchmarkFig11PTWSweep measures normalized performance at 128 walkers
// with PRMB(32) (paper: ≈0.99).
func BenchmarkFig11PTWSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig11()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range rows {
			if r.Param == 128 {
				sum += r.Perf
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "norm_perf@128ptw")
	}
}

// BenchmarkFig12aPTWNoPRMB measures the PTW sweep without merging at 1024
// walkers (performance recovers, energy does not — see Fig12b).
func BenchmarkFig12aPTWNoPRMB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig12a()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range rows {
			if r.Param == 1024 {
				sum += r.Perf
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "norm_perf@1024ptw")
	}
}

// BenchmarkFig12bEnergyPerf measures the energy blow-up of the
// PRMB-starved [1,4096] design point relative to nominal [32,128]
// (paper: up to 7.1×).
func BenchmarkFig12bEnergyPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig12b()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Slots == 1 {
				b.ReportMetric(r.Energy, "energy_x_nominal")
			}
		}
	}
}

// BenchmarkFig13TPregHitRate measures the TPreg L4 tag-match rate
// (paper: 99.5%).
func BenchmarkFig13TPregHitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig13()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.L4
		}
		b.ReportMetric(sum/float64(len(rows)), "l4_hit_rate")
	}
}

// BenchmarkFig14VATrace measures VA-trace generation over consecutive
// tiles.
func BenchmarkFig14VATrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig14(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "trace_points")
	}
}

// BenchmarkFig15NUMAEmbedding measures the NUMA(fast) latency relative to
// the MMU-less baseline (paper: 71% average reduction).
func BenchmarkFig15NUMAEmbedding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig15()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mode.String() == "numa-fast" {
				b.ReportMetric(r.Total, "latency_vs_baseline")
			}
		}
	}
}

// BenchmarkFig16DemandPaging measures NeuMMU's demand-paged normalized
// performance with 4 KB pages (paper: ≈0.96).
func BenchmarkFig16DemandPaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Fig16()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.PageSize == Page4K && r.MMU == ThroughputNeuMMU {
				b.ReportMetric(r.Perf, "norm_perf_4k")
			}
		}
	}
}

// BenchmarkSummaryNeuMMU measures the §IV-D headline: NeuMMU's overhead
// versus the oracle (paper: 0.06%).
func BenchmarkSummaryNeuMMU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := quick().RunSummary()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*s.NeuMMUOverhead, "overhead_pct")
		b.ReportMetric(s.EnergyRatio, "energy_ratio")
	}
}

// BenchmarkTLBSweep measures the performance gain from a 64× larger TLB
// on the baseline IOMMU (paper: <0.02%).
func BenchmarkTLBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().TLBSweep()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Perf-rows[0].Perf, "perf_gain")
	}
}

// BenchmarkLargePageDense measures the baseline IOMMU's normalized
// performance with 2 MB pages on dense workloads (paper: ≈0.96).
func BenchmarkLargePageDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().LargePageDense()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.Perf2M
		}
		b.ReportMetric(sum/float64(len(rows)), "iommu_2mb_perf")
	}
}

// BenchmarkSpatialNPU measures NeuMMU's normalized performance on the
// spatial-array NPU (paper: ≈0.98).
func BenchmarkSpatialNPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().SpatialNPU()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.NeuMMU
		}
		b.ReportMetric(sum/float64(len(rows)), "neummu_perf")
	}
}

// BenchmarkSensitivity measures NeuMMU at large (training-scale) batches
// on the common layers (paper: 99.9%).
func BenchmarkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Sensitivity()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.NeuMMU
		}
		b.ReportMetric(sum/float64(len(rows)), "neummu_perf")
	}
}

// BenchmarkPathCacheStudy measures TPreg's page-table reads per walk
// versus the uncached 4.0 (§IV-C design space).
func BenchmarkPathCacheStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().PathCacheStudy()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kind.String() == "TPreg" {
				b.ReportMetric(r.WalkMemPerWalk, "reads/walk")
			}
		}
	}
}

// BenchmarkMultiTenant measures NeuMMU's resilience to a co-tenant
// consuming most of the walker pool.
func BenchmarkMultiTenant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().MultiTenant()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Perf, "perf_min_walkers")
	}
}

// BenchmarkBurstThrottle measures the paper's rejected alternative:
// serializing misses never lifts the baseline meaningfully (§III-C).
func BenchmarkBurstThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().BurstThrottle()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Perf, "throttled_perf")
	}
}

// BenchmarkSteadyStatePaging measures warm-batch fault reduction under
// consecutive demand-paged inference batches.
func BenchmarkSteadyStatePaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().SteadyState()
		if err != nil {
			b.Fatal(err)
		}
		var cold, warm float64
		for _, r := range rows {
			if r.Mode.String() != "demand-paging" {
				continue
			}
			if r.Iteration == 0 {
				cold = float64(r.Faults)
			}
			warm = float64(r.Faults)
		}
		if cold > 0 {
			b.ReportMetric(warm/cold, "warm_fault_ratio")
		}
	}
}

// BenchmarkOversubscription measures thrashing overhead at the tightest
// local-memory capacity versus unbounded.
func BenchmarkOversubscription(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().Oversubscription()
		if err != nil {
			b.Fatal(err)
		}
		tight := rows[len(rows)-1]
		free := rows[0]
		if free.WarmGather > 0 {
			b.ReportMetric(float64(tight.WarmGather)/float64(free.WarmGather), "thrash_slowdown")
		}
	}
}

// BenchmarkTFSuite measures NeuMMU's normalized performance on the
// transformer suite (the first post-paper workload class).
func BenchmarkTFSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().TFSuite()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.NeuMMU
		}
		b.ReportMetric(sum/float64(len(rows)), "neummu_perf")
	}
}

// BenchmarkKVCacheStudy measures the decoder KV stream's page footprint
// at the last profiled decode step.
func BenchmarkKVCacheStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := quick().KVCache()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Rows[len(s.Rows)-1].KVPages), "kv_pages/step")
		b.ReportMetric(float64(s.Timeline.Peak()), "peak_xlat/1kcy")
	}
}

// BenchmarkSeqSweep measures the baseline IOMMU's normalized performance
// at the longest benchmarked sequence (translation pressure grows with
// sequence length).
func BenchmarkSeqSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().SeqSweep()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].IOMMU, "iommu_perf@max_seq")
	}
}

// BenchmarkDataflowStudy measures NeuMMU's minimum normalized performance
// across all three compute organizations (§VI-B).
func BenchmarkDataflowStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := quick().DataflowStudy()
		if err != nil {
			b.Fatal(err)
		}
		min := 1.0
		for _, r := range rows {
			if r.NeuMMU < min {
				min = r.NeuMMU
			}
		}
		b.ReportMetric(min, "neummu_min_perf")
	}
}
