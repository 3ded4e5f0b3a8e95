package neummu

import (
	"testing"

	"neummu/internal/core"
	"neummu/internal/energy"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/systolic"
	"neummu/internal/vm"
	"neummu/internal/workloads"
)

// Integration tests: end-to-end invariants that span the whole stack
// (workload planning → DMA → MMU → memory → results). Unit tests live in
// each internal package; these check the composed system.

func integOpts() Options { return Options{Effort: Effort{RepeatCap: 2, TileCap: 8}} }

// TestEveryModelEveryMMUCompletes is the broad smoke matrix: all six
// dense models under all three canonical MMUs at two batch sizes.
func TestEveryModelEveryMMUCompletes(t *testing.T) {
	for _, model := range DenseModels() {
		for _, kind := range []MMUKind{OracleMMU, BaselineIOMMU, ThroughputNeuMMU} {
			for _, batch := range []int{1, 8} {
				res, err := Simulate(model, batch, kind, integOpts())
				if err != nil {
					t.Fatalf("%s b%d %v: %v", model, batch, kind, err)
				}
				if res.Cycles <= 0 || res.Translations <= 0 {
					t.Fatalf("%s b%d %v: empty result %+v", model, batch, kind, res)
				}
			}
		}
	}
}

// TestTranslationConservation checks that every transaction the DMA
// issues is translated exactly once and produces exactly one data access.
func TestTranslationConservation(t *testing.T) {
	for _, kind := range []MMUKind{BaselineIOMMU, ThroughputNeuMMU} {
		res, err := Simulate("CNN-1", 4, kind, integOpts())
		if err != nil {
			t.Fatal(err)
		}
		if res.MMU.Issued != res.Translations {
			t.Fatalf("%v: issued %d, transactions %d", kind, res.MMU.Issued, res.Translations)
		}
		if res.MMU.Latency.N != res.Translations {
			t.Fatalf("%v: %d completions for %d transactions", kind, res.MMU.Latency.N, res.Translations)
		}
		// TLB lookups = translations (every request probes once).
		if res.TLB.Lookups != res.Translations {
			t.Fatalf("%v: %d TLB lookups for %d translations", kind, res.TLB.Lookups, res.Translations)
		}
		// Walker requests = TLB misses; hits bypass the pool.
		if res.Walker.Requests != res.TLB.Misses {
			t.Fatalf("%v: %d pool requests for %d TLB misses", kind, res.Walker.Requests, res.TLB.Misses)
		}
		// Memory data accesses = transactions (walk reads don't mix in).
		dataAccesses := res.Memory.Accesses - res.Memory.WalkReads
		if dataAccesses != res.Translations {
			t.Fatalf("%v: %d data accesses for %d transactions", kind, dataAccesses, res.Translations)
		}
	}
}

// TestBytesConservation checks the DMA moves exactly the planned volume.
func TestBytesConservation(t *testing.T) {
	m, err := workloads.ByName("RNN-2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := workloads.BuildPlan(m, 1, workloads.DefaultTiles())
	if err != nil {
		t.Fatal(err)
	}
	res, err := npu.Run(plan, npu.Config{
		MMU:     core.Config{Kind: core.Oracle, PageSize: vm.Page4K},
		Memory:  memsys.Baseline(),
		Compute: systolic.Baseline(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesFetched != plan.TotalBytes() {
		t.Fatalf("fetched %d bytes, plan says %d", res.BytesFetched, plan.TotalBytes())
	}
	if res.Memory.Bytes != res.BytesFetched {
		t.Fatalf("memory saw %d bytes, DMA fetched %d", res.Memory.Bytes, res.BytesFetched)
	}
}

// TestWalkAccountingAcrossStack: walk memory accesses = Σ(levels−skipped).
func TestWalkAccountingAcrossStack(t *testing.T) {
	res, err := Simulate("CNN-2", 1, ThroughputNeuMMU, integOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := res.Walker
	expected := w.WalksStarted*4 - w.SkippedLevels
	if w.WalkMemAccesses != expected {
		t.Fatalf("walk accesses %d != 4·walks − skipped = %d", w.WalkMemAccesses, expected)
	}
	// Energy model consumes exactly these counters.
	b := energy.Translation(res, energy.Default45nm())
	if b.WalkDRAM != float64(w.WalkMemAccesses)*energy.Default45nm().DRAMAccessPJ {
		t.Fatal("energy model disagrees with walk counter")
	}
}

// TestOrderingInvariantHoldsEverywhere: for every model, oracle ≤ NeuMMU
// ≤ IOMMU in cycles.
func TestOrderingInvariantHoldsEverywhere(t *testing.T) {
	for _, model := range DenseModels() {
		oracle, err := Simulate(model, 4, OracleMMU, integOpts())
		if err != nil {
			t.Fatal(err)
		}
		neu, err := Simulate(model, 4, ThroughputNeuMMU, integOpts())
		if err != nil {
			t.Fatal(err)
		}
		io, err := Simulate(model, 4, BaselineIOMMU, integOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !(oracle.Cycles <= neu.Cycles && neu.Cycles <= io.Cycles) {
			t.Fatalf("%s: ordering violated oracle=%d neu=%d iommu=%d",
				model, oracle.Cycles, neu.Cycles, io.Cycles)
		}
	}
}

// TestNeuMMUComponentsCompose verifies each NeuMMU ingredient contributes:
// adding PTS+PRMB, then walkers, then TPreg must be monotonically
// non-worse on a translation-bound workload.
func TestNeuMMUComponentsCompose(t *testing.T) {
	h := NewHarness(HarnessOptions{Effort: Effort{Mode: EffortQuick}, Models: []string{"RNN-1"}, Batches: []int{1}})
	// Build the ladder via the exp harness's custom MMU path by running
	// the public sweeps: Fig10 (merging), Fig11 (walkers).
	f10, err := h.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	f11, err := h.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	perf10 := map[int]float64{}
	for _, r := range f10 {
		perf10[r.Param] = r.Perf
	}
	perf11 := map[int]float64{}
	for _, r := range f11 {
		perf11[r.Param] = r.Perf
	}
	if perf10[32] < perf10[1] {
		t.Fatalf("merging hurt: %v < %v", perf10[32], perf10[1])
	}
	if perf11[128] < perf10[32] {
		t.Fatalf("walkers hurt: %v < %v", perf11[128], perf10[32])
	}
}

// TestSparseModesAllComplete runs the full sparse matrix.
func TestSparseModesAllComplete(t *testing.T) {
	for _, model := range SparseModels() {
		for _, mode := range []GatherMode{GatherBaselineCopy, GatherNUMASlow,
			GatherNUMAFast, GatherDemandPaging, GatherDemandPagingMosaic} {
			r, err := SimulateSparse(model, 4, mode, ThroughputNeuMMU, Page4K)
			if err != nil {
				t.Fatalf("%s %v: %v", model, mode, err)
			}
			if r.Breakdown.Total() <= 0 {
				t.Fatalf("%s %v: empty breakdown", model, mode)
			}
		}
	}
}

// TestSparseIterationsFacade exercises the steady-state public API.
func TestSparseIterationsFacade(t *testing.T) {
	results, err := SimulateSparseIterations("NCF", 8, 3, GatherDemandPaging,
		ThroughputNeuMMU, Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if results[2].Faults >= results[0].Faults {
		t.Fatalf("no warm-up: %d then %d faults", results[0].Faults, results[2].Faults)
	}
}

// TestCrossPageSizeConsistency: the same workload moves the same bytes
// regardless of page size; only translation structure changes.
func TestCrossPageSizeConsistency(t *testing.T) {
	o4, err := Simulate("CNN-1", 1, OracleMMU, Options{Effort: Effort{TileCap: 4}, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Simulate("CNN-1", 1, OracleMMU, Options{Effort: Effort{TileCap: 4}, PageSize: Page2M})
	if err != nil {
		t.Fatal(err)
	}
	if o4.BytesFetched != o2.BytesFetched {
		t.Fatalf("bytes differ across page sizes: %d vs %d", o4.BytesFetched, o2.BytesFetched)
	}
	if o4.Tiles != o2.Tiles {
		t.Fatalf("tile counts differ: %d vs %d", o4.Tiles, o2.Tiles)
	}
}

// TestStallAccountingConsistent: issue stalls only happen when the MMU
// applied back-pressure, and oracle never stalls.
func TestStallAccountingConsistent(t *testing.T) {
	oracle, err := Simulate("RNN-1", 1, OracleMMU, integOpts())
	if err != nil {
		t.Fatal(err)
	}
	if oracle.StallCycles != 0 || oracle.MMU.StallEnter != 0 {
		t.Fatalf("oracle stalled: %+v", oracle.MMU)
	}
	io, err := Simulate("RNN-1", 1, BaselineIOMMU, integOpts())
	if err != nil {
		t.Fatal(err)
	}
	if io.MMU.StallEnter > 0 && io.StallCycles == 0 {
		t.Fatal("MMU stalled but DMA recorded no stall cycles")
	}
}
