// Package counters defines the standard per-simulation counter bundle:
// one flat value struct gathering every hardware-ish event count the
// simulator already tracks (TLB, walker pool, path caches, DMA, DRAM,
// cycle phases) into a single auditable record.
//
// The bundle is collected once, at result time, from the stats snapshots
// the component packages expose — never on the simulation hot path — so
// counter collection stays on the zero-allocation budget (see
// TestAllocFreeCollect). It travels with npu.Result and numa.Result,
// through the NDJSON rows of internal/serve and the cluster merge of
// internal/cluster, and aggregates into /metrics.
//
// Its purpose is self-refutation (CounterPoint's discipline, PAPERS.md):
// Violations reports every broken conservation law by name, and the
// invariants suite (invariants_test.go at the repo root) cross-checks
// bundles from every registered study against analytical bounds, so a
// change that silently breaks the memory model fails CI with a named
// invariant instead of a diffed byte.
package counters

import (
	"neummu/internal/core"
	"neummu/internal/memsys"
	"neummu/internal/tlb"
	"neummu/internal/walker"
)

// Bundle is the standard counter record of one simulation (or, after Add,
// of a set of simulations — every field is a sum, so bundles compose).
// All fields are plain int64 event counts; JSON field order is the
// declaration order below and the shape is fixed (no omitempty), so an
// encoded bundle is byte-stable across processes — the property the
// cluster merge's byte-identity contract rests on.
type Bundle struct {
	// MMU front end (internal/core). Prefetches is retired and always 0:
	// the MMU has no prefetcher. It stays on the wire so every row,
	// /v1/cells line and stored value keeps its bytes.
	TranslationsIssued int64 `json:"translations_issued"`
	OracleHits         int64 `json:"oracle_hits"`
	Faults             int64 `json:"faults"`
	Retries            int64 `json:"retries"`
	Prefetches         int64 `json:"prefetches"`
	StallEnters        int64 `json:"stall_enters"`

	// TLB (internal/tlb).
	TLBLookups   int64 `json:"tlb_lookups"`
	TLBHits      int64 `json:"tlb_hits"`
	TLBMisses    int64 `json:"tlb_misses"`
	TLBFills     int64 `json:"tlb_fills"`
	TLBEvictions int64 `json:"tlb_evictions"`

	// Walker pool (internal/walker): PTWs, PRMB merging, PTS scoreboard.
	WalkRequests   int64 `json:"walk_requests"`
	WalksIssued    int64 `json:"walks_issued"`
	WalksCompleted int64 `json:"walks_completed"`
	PRMBMerges     int64 `json:"prmb_merges"`
	PRMBMergeFails int64 `json:"prmb_merge_fails"`
	WalkRejects    int64 `json:"walk_rejects"`
	RedundantWalks int64 `json:"redundant_walks"`
	WalkFaults     int64 `json:"walk_faults"`
	WalkDRAMReads  int64 `json:"walk_dram_reads"`
	SkippedLevels  int64 `json:"skipped_levels"`

	// Translation-path caches (TPreg/TPC/UPTC, internal/walker).
	PathProbes  int64 `json:"path_probes"`
	PathL4Hits  int64 `json:"path_l4_hits"`
	PathL3Hits  int64 `json:"path_l3_hits"`
	PathL2Hits  int64 `json:"path_l2_hits"`
	PathUpdates int64 `json:"path_updates"`

	// DMA engine (internal/dma).
	DMATiles         int64 `json:"dma_tiles"`
	DMASegments      int64 `json:"dma_segments"`
	DMATransactions  int64 `json:"dma_transactions"`
	DMABytes         int64 `json:"dma_bytes"`
	DMADistinctPages int64 `json:"dma_distinct_pages"`

	// DRAM (internal/memsys).
	DRAMAccesses  int64 `json:"dram_accesses"`
	DRAMBytes     int64 `json:"dram_bytes"`
	DRAMWalkReads int64 `json:"dram_walk_reads"`

	// Cycle phases (internal/npu's tile pipeline; zero for workloads that
	// do not run the dense pipeline, e.g. the NUMA embedding case study).
	TotalCycles    int64 `json:"total_cycles"`
	MemPhaseCycles int64 `json:"mem_phase_cycles"`
	ComputeCycles  int64 `json:"compute_cycles"`
	StallCycles    int64 `json:"stall_cycles"`
}

// DMAStats carries the DMA engine's aggregate counters into Collect
// without importing internal/dma (a plain value mirror of its accessors).
type DMAStats struct {
	Tiles         int64
	Segments      int64
	Transactions  int64
	Bytes         int64
	DistinctPages int64
}

// CycleStats carries the run's phase accounting into Collect.
type CycleStats struct {
	Total    int64
	MemPhase int64
	Compute  int64
	Stall    int64
}

// Sources gathers the per-component stats snapshots a simulation exposes
// at result time. Zero values are valid everywhere: an oracle MMU has
// zero TLB/walker stats, the NUMA case study has zero cycle phases.
type Sources struct {
	MMU    core.Stats
	TLB    tlb.Stats
	Walker walker.Stats
	Path   walker.PathStats
	Memory memsys.Stats
	DMA    DMAStats
	Cycles CycleStats
}

// Collect flattens the source snapshots into a Bundle. It performs no
// arithmetic beyond field copies, so a bundle is exactly as trustworthy
// as the component counters it mirrors — the cross-checking happens in
// Violations and the invariants suite.
func Collect(s Sources) Bundle {
	return Bundle{
		TranslationsIssued: s.MMU.Issued,
		OracleHits:         s.MMU.OracleHits,
		Faults:             s.MMU.Faults,
		Retries:            s.MMU.Retries,
		StallEnters:        s.MMU.StallEnter,

		TLBLookups:   s.TLB.Lookups,
		TLBHits:      s.TLB.Hits,
		TLBMisses:    s.TLB.Misses,
		TLBFills:     s.TLB.Fills,
		TLBEvictions: s.TLB.Evictions,

		WalkRequests:   s.Walker.Requests,
		WalksIssued:    s.Walker.WalksStarted,
		WalksCompleted: s.Walker.WalksCompleted,
		PRMBMerges:     s.Walker.Merges,
		PRMBMergeFails: s.Walker.MergeFails,
		WalkRejects:    s.Walker.Rejected,
		RedundantWalks: s.Walker.RedundantWalks,
		WalkFaults:     s.Walker.Faults,
		WalkDRAMReads:  s.Walker.WalkMemAccesses,
		SkippedLevels:  s.Walker.SkippedLevels,

		PathProbes:  s.Path.Probes,
		PathL4Hits:  s.Path.L4Hits,
		PathL3Hits:  s.Path.L3Hits,
		PathL2Hits:  s.Path.L2Hits,
		PathUpdates: s.Path.Updates,

		DMATiles:         s.DMA.Tiles,
		DMASegments:      s.DMA.Segments,
		DMATransactions:  s.DMA.Transactions,
		DMABytes:         s.DMA.Bytes,
		DMADistinctPages: s.DMA.DistinctPages,

		DRAMAccesses:  s.Memory.Accesses,
		DRAMBytes:     s.Memory.Bytes,
		DRAMWalkReads: s.Memory.WalkReads,

		TotalCycles:    s.Cycles.Total,
		MemPhaseCycles: s.Cycles.MemPhase,
		ComputeCycles:  s.Cycles.Compute,
		StallCycles:    s.Cycles.Stall,
	}
}

// Add returns the field-wise sum of b and o. Summing is how the sweep
// summary, the cluster merge, and /metrics aggregate bundles; every
// conservation law in Violations is linear, so a sum of law-abiding
// bundles abides too.
func (b Bundle) Add(o Bundle) Bundle {
	b.TranslationsIssued += o.TranslationsIssued
	b.OracleHits += o.OracleHits
	b.Faults += o.Faults
	b.Retries += o.Retries
	b.Prefetches += o.Prefetches
	b.StallEnters += o.StallEnters

	b.TLBLookups += o.TLBLookups
	b.TLBHits += o.TLBHits
	b.TLBMisses += o.TLBMisses
	b.TLBFills += o.TLBFills
	b.TLBEvictions += o.TLBEvictions

	b.WalkRequests += o.WalkRequests
	b.WalksIssued += o.WalksIssued
	b.WalksCompleted += o.WalksCompleted
	b.PRMBMerges += o.PRMBMerges
	b.PRMBMergeFails += o.PRMBMergeFails
	b.WalkRejects += o.WalkRejects
	b.RedundantWalks += o.RedundantWalks
	b.WalkFaults += o.WalkFaults
	b.WalkDRAMReads += o.WalkDRAMReads
	b.SkippedLevels += o.SkippedLevels

	b.PathProbes += o.PathProbes
	b.PathL4Hits += o.PathL4Hits
	b.PathL3Hits += o.PathL3Hits
	b.PathL2Hits += o.PathL2Hits
	b.PathUpdates += o.PathUpdates

	b.DMATiles += o.DMATiles
	b.DMASegments += o.DMASegments
	b.DMATransactions += o.DMATransactions
	b.DMABytes += o.DMABytes
	b.DMADistinctPages += o.DMADistinctPages

	b.DRAMAccesses += o.DRAMAccesses
	b.DRAMBytes += o.DRAMBytes
	b.DRAMWalkReads += o.DRAMWalkReads

	b.TotalCycles += o.TotalCycles
	b.MemPhaseCycles += o.MemPhaseCycles
	b.ComputeCycles += o.ComputeCycles
	b.StallCycles += o.StallCycles
	return b
}

// Violations cross-checks the bundle against the conservation laws that
// hold for every drained simulation, regardless of workload, MMU kind or
// page size, and returns one "name: detail" string per broken law (nil —
// with no allocation — when the bundle is clean).
//
// Only universally true laws live here; stricter equalities that depend
// on run shape (roofline bounds, paper ratios, walk-depth arithmetic
// that needs the page size) are asserted by name in invariants_test.go.
func (b Bundle) Violations() []string {
	var v []string
	bad := func(name, detail string) { v = append(v, name+": "+detail) }

	// Every TLB probe either hits or misses.
	if b.TLBHits+b.TLBMisses != b.TLBLookups {
		bad("tlb-conservation", "hits + misses != lookups")
	}
	// A walker request either merges into a pending walk or starts one
	// (rejected submissions are not counted as requests).
	if b.WalksIssued != b.WalkRequests-b.PRMBMerges {
		bad("walk-request-conservation", "walks issued != requests - merges")
	}
	// Every started walk completes by drain time (faulting or not).
	if b.WalksCompleted != b.WalksIssued {
		bad("walk-completion", "walks completed != walks issued")
	}
	// Every successfully completed walk fills the TLB exactly once.
	if b.TLBFills != b.WalksCompleted-b.WalkFaults {
		bad("tlb-fill-conservation", "fills != completed walks - walk faults")
	}
	// Walker requests come from TLB misses — nowhere else. The retired
	// prefetches field stays in the sum, so a bundle that carries one
	// fails.
	if b.WalkRequests != b.TLBMisses+b.Prefetches {
		bad("miss-walk-conservation", "requests != tlb misses + prefetches")
	}
	// DRAM decomposes into DMA data traffic plus page-table node reads
	// (8 bytes each). Walk reads are modeled outside the DRAM channels in
	// the current memory system, so both sides see the same zero — the law
	// still holds and starts failing the day walk traffic lands on the
	// channels without being accounted.
	if b.DRAMAccesses != b.DMATransactions+b.DRAMWalkReads {
		bad("dram-dma-conservation", "dram accesses != dma transactions + walk reads")
	}
	if b.DRAMBytes != b.DMABytes+8*b.DRAMWalkReads {
		bad("dram-byte-conservation", "dram bytes != dma bytes + 8 * walk reads")
	}
	// Transactions are page-confined, so a tile issues at least one
	// transaction per distinct page it touches.
	if b.DMATransactions < b.DMADistinctPages {
		bad("dma-page-bound", "transactions < distinct pages")
	}
	// Path caching can only skip levels the caches actually hit.
	if b.SkippedLevels != b.PathL4Hits+b.PathL3Hits+b.PathL2Hits {
		bad("path-skip-conservation", "skipped levels != path cache hits")
	}
	// With no faults, every issued translation goes to exactly one of the
	// oracle fast path or the TLB (fault retries re-probe the TLB without
	// re-issuing, so the law only brackets fault-free runs).
	if b.Faults == 0 && b.TLBLookups != b.TranslationsIssued-b.OracleHits {
		bad("issue-accounting", "tlb lookups != issued - oracle hits")
	}
	// Cycle bracketing for runs that report phase accounting: stalls are
	// part of memory phases, each phase fits in the run, and mem + compute
	// cover the run (phases of each kind are serialized and every cycle
	// belongs to a tile's memory phase or a compute phase).
	if b.MemPhaseCycles+b.ComputeCycles > 0 {
		if b.StallCycles > b.MemPhaseCycles {
			bad("stall-bracketing", "stall cycles > mem-phase cycles")
		}
		if b.MemPhaseCycles > b.TotalCycles || b.ComputeCycles > b.TotalCycles {
			bad("phase-bracketing", "phase cycles > total cycles")
		}
		if b.TotalCycles > b.MemPhaseCycles+b.ComputeCycles {
			bad("phase-coverage", "total cycles > mem + compute cycles")
		}
	}
	return v
}
