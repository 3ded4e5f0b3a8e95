package counters

import (
	"strings"
	"testing"

	"neummu/internal/core"
	"neummu/internal/memsys"
	"neummu/internal/tlb"
	"neummu/internal/walker"
)

// clean returns a bundle satisfying every conservation law: 100 issued
// translations, 60 TLB hits, 40 misses, 10 merged walks, 30 walks run
// with 5 levels skipped via path caching, all DRAM traffic from the DMA.
func clean() Bundle {
	return Bundle{
		TranslationsIssued: 100,
		TLBLookups:         100,
		TLBHits:            60,
		TLBMisses:          40,
		TLBFills:           30,

		WalkRequests:   40,
		WalksIssued:    30,
		WalksCompleted: 30,
		PRMBMerges:     10,
		WalkDRAMReads:  115,
		SkippedLevels:  5,
		PathProbes:     30,
		PathL4Hits:     3,
		PathL3Hits:     2,

		DMATiles:         2,
		DMASegments:      4,
		DMATransactions:  100,
		DMABytes:         100 * 1024,
		DMADistinctPages: 25,

		DRAMAccesses: 100,
		DRAMBytes:    100 * 1024,

		TotalCycles:    1000,
		MemPhaseCycles: 700,
		ComputeCycles:  600,
		StallCycles:    50,
	}
}

func TestCleanBundleHasNoViolations(t *testing.T) {
	if v := clean().Violations(); v != nil {
		t.Fatalf("clean bundle reported violations: %v", v)
	}
}

func TestZeroBundleHasNoViolations(t *testing.T) {
	// The zero bundle (an un-run or oracle-only simulation) must be legal:
	// every law is an equality of zeros or gated off.
	if v := (Bundle{}).Violations(); v != nil {
		t.Fatalf("zero bundle reported violations: %v", v)
	}
}

// TestEachViolationIsNamed breaks one law at a time and asserts the
// violation list names exactly that law — the property that makes a CI
// failure actionable.
func TestEachViolationIsNamed(t *testing.T) {
	cases := []struct {
		name  string
		mutil func(*Bundle)
	}{
		{"tlb-conservation", func(b *Bundle) { b.TLBHits++ }},
		{"walk-request-conservation", func(b *Bundle) { b.PRMBMerges++ }},
		{"walk-completion", func(b *Bundle) { b.WalksCompleted++; b.TLBFills++ }},
		{"tlb-fill-conservation", func(b *Bundle) { b.TLBFills++ }},
		{"miss-walk-conservation", func(b *Bundle) { b.Prefetches++ }},
		{"dram-dma-conservation", func(b *Bundle) { b.DRAMAccesses++ }},
		{"dram-byte-conservation", func(b *Bundle) { b.DRAMBytes++ }},
		{"dma-page-bound", func(b *Bundle) { b.DMADistinctPages = b.DMATransactions + 1 }},
		{"path-skip-conservation", func(b *Bundle) { b.PathL2Hits++ }},
		{"issue-accounting", func(b *Bundle) { b.OracleHits++ }},
		{"stall-bracketing", func(b *Bundle) { b.StallCycles = b.MemPhaseCycles + 1 }},
		{"phase-bracketing", func(b *Bundle) { b.MemPhaseCycles = b.TotalCycles + 1 }},
		{"phase-coverage", func(b *Bundle) { b.TotalCycles = b.MemPhaseCycles + b.ComputeCycles + 1 }},
	}
	for _, tc := range cases {
		b := clean()
		tc.mutil(&b)
		v := b.Violations()
		found := false
		for _, s := range v {
			if strings.HasPrefix(s, tc.name+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: mutation not reported; violations: %v", tc.name, v)
		}
	}
}

func TestFaultGateSuppressesIssueAccounting(t *testing.T) {
	b := clean()
	// A faulting run legitimately re-probes the TLB on retry without
	// re-issuing; the gate must keep that from reading as a violation.
	b.Faults = 1
	b.TLBLookups++
	b.TLBHits++
	for _, s := range b.Violations() {
		if strings.HasPrefix(s, "issue-accounting:") {
			t.Fatalf("issue-accounting reported despite faults: %v", s)
		}
	}
}

func TestCollectMapsEveryField(t *testing.T) {
	src := Sources{
		MMU: core.Stats{Issued: 1, OracleHits: 2, Faults: 3, Retries: 4,
			StallEnter: 5},
		TLB: tlb.Stats{Lookups: 7, Hits: 8, Misses: 9, Fills: 10, Evictions: 11},
		Walker: walker.Stats{Requests: 12, WalksStarted: 13, WalksCompleted: 14,
			RedundantWalks: 15, Merges: 16, MergeFails: 17, Rejected: 18,
			WalkMemAccesses: 19, SkippedLevels: 20, Faults: 21},
		Path:   walker.PathStats{Probes: 22, L4Hits: 23, L3Hits: 24, L2Hits: 25, Updates: 26},
		Memory: memsys.Stats{Accesses: 27, Bytes: 28, WalkReads: 29},
		DMA:    DMAStats{Tiles: 30, Segments: 31, Transactions: 32, Bytes: 33, DistinctPages: 34},
		Cycles: CycleStats{Total: 35, MemPhase: 36, Compute: 37, Stall: 38},
	}
	b := Collect(src)
	want := Bundle{
		TranslationsIssued: 1, OracleHits: 2, Faults: 3, Retries: 4, StallEnters: 5,
		TLBLookups: 7, TLBHits: 8, TLBMisses: 9, TLBFills: 10, TLBEvictions: 11,
		WalkRequests: 12, WalksIssued: 13, WalksCompleted: 14, RedundantWalks: 15,
		PRMBMerges: 16, PRMBMergeFails: 17, WalkRejects: 18,
		WalkDRAMReads: 19, SkippedLevels: 20, WalkFaults: 21,
		PathProbes: 22, PathL4Hits: 23, PathL3Hits: 24, PathL2Hits: 25, PathUpdates: 26,
		DRAMAccesses: 27, DRAMBytes: 28, DRAMWalkReads: 29,
		DMATiles: 30, DMASegments: 31, DMATransactions: 32, DMABytes: 33, DMADistinctPages: 34,
		TotalCycles: 35, MemPhaseCycles: 36, ComputeCycles: 37, StallCycles: 38,
	}
	if b != want {
		t.Fatalf("Collect mapping mismatch:\n got %+v\nwant %+v", b, want)
	}
}

func TestAddIsFieldwise(t *testing.T) {
	a, b := clean(), clean()
	sum := a.Add(b)
	if sum.TLBLookups != 2*a.TLBLookups || sum.DRAMBytes != 2*a.DRAMBytes ||
		sum.TotalCycles != 2*a.TotalCycles || sum.PathL3Hits != 2*a.PathL3Hits {
		t.Fatalf("Add not field-wise: %+v", sum)
	}
	// Conservation laws are linear, so a sum of clean bundles is clean.
	if v := sum.Violations(); v != nil {
		t.Fatalf("sum of clean bundles reported violations: %v", v)
	}
	if z := (Bundle{}).Add(a); z != a {
		t.Fatalf("zero is not Add-identity")
	}
}

// TestAllocFreeViolations pins the clean path of Violations to zero
// allocations: it runs once per simulation result and must not tax the
// sweep engine (bench-smoke runs this file's Alloc tests with -race).
func TestAllocFreeViolations(t *testing.T) {
	b := clean()
	allocs := testing.AllocsPerRun(100, func() {
		if v := b.Violations(); v != nil {
			t.Fatalf("unexpected violations: %v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("Violations() on a clean bundle allocates %.1f times", allocs)
	}
}

// TestAllocFreeCollectAdd pins Collect and Add to zero allocations: they
// are pure value plumbing.
func TestAllocFreeCollectAdd(t *testing.T) {
	src := Sources{TLB: tlb.Stats{Lookups: 1, Hits: 1}}
	var sink Bundle
	allocs := testing.AllocsPerRun(100, func() {
		b := Collect(src)
		sink = sink.Add(b)
	})
	if allocs != 0 {
		t.Fatalf("Collect+Add allocates %.1f times", allocs)
	}
	_ = sink
}
