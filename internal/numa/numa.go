// Package numa models the multi-NPU system of the paper's §V case study:
// embedding tables model-parallelized across NPUs (Fig 5), with three ways
// of gathering remote embeddings and, for §VI-A, demand paging at 4 KB and
// 2 MB granularity.
//
// Modes:
//
//   - BaselineCopy: the MMU-less NPU cannot address remote memory, so the
//     CPU runtime gathers remote embeddings on each source NPU, copies
//     them to a host staging buffer over PCIe, and copies them again to
//     the destination NPU (§III-B).
//   - NUMASlow / NUMAFast: NeuMMU lets the NPU address remote pages
//     directly; each gather is a fine-grained load over the system
//     interconnect — PCIe (16 GB/s) or an NVLink-class fabric (160 GB/s) —
//     paying the 150-cycle NUMA hop latency from Table I.
//   - DemandPaging: first touch of a remote page page-faults; the page
//     migrates over the interconnect into local memory and the access
//     retries (§VI-A, Fig 16).
package numa

import (
	"fmt"

	"neummu/internal/core"
	"neummu/internal/counters"
	"neummu/internal/dma"
	"neummu/internal/embeddings"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/systolic"
	"neummu/internal/tensor"
	"neummu/internal/vm"
)

// Mode selects how remote embeddings reach the local NPU.
type Mode int

const (
	// BaselineCopy is the MMU-less CPU-staged double copy.
	BaselineCopy Mode = iota
	// NUMASlow is fine-grained remote access over PCIe.
	NUMASlow
	// NUMAFast is fine-grained remote access over an NVLink-class fabric.
	NUMAFast
	// DemandPaging migrates faulting pages into local memory.
	DemandPaging
	// DemandPagingMosaic is the mixed-page-size extension sketched in
	// §VI-A (citing Mosaic [62]): demand paging at 4 KB granularity, but
	// once enough small pages of one 2 MB region are resident the region
	// is promoted to a single large page — cutting its walk depth and TLB
	// footprint without paying 2 MB migrations for cold regions.
	DemandPagingMosaic
)

func (m Mode) String() string {
	switch m {
	case BaselineCopy:
		return "baseline"
	case NUMASlow:
		return "numa-slow"
	case NUMAFast:
		return "numa-fast"
	case DemandPaging:
		return "demand-paging"
	case DemandPagingMosaic:
		return "demand-paging-mosaic"
	default:
		return "unknown"
	}
}

// SystemConfig describes the multi-NPU platform (Table I).
type SystemConfig struct {
	NumNPUs int
	// CPULinkBytesPerCycle is the CPU↔NPU interconnect (PCIe, 16 GB/s at
	// 1 GHz = 16 B/cy); NPULinkBytesPerCycle is the NPU↔NPU fabric
	// (160 GB/s = 160 B/cy).
	CPULinkBytesPerCycle int64
	NPULinkBytesPerCycle int64
	// NUMALatency is the extra hop latency over the system interconnect.
	NUMALatency int64
	// HostOverhead is the fixed CPU-runtime cost of orchestrating one
	// staged copy (driver + kernel launch), in cycles.
	HostOverhead int64
	// FaultOverhead is the fixed runtime cost of servicing one page
	// fault before migration starts, in cycles.
	FaultOverhead int64
	// LocalMemory is each NPU's local memory system.
	LocalMemory memsys.Config
	// LocalCapacity bounds the bytes of migrated pages the local memory
	// can hold under demand paging; 0 is unbounded. When full, the least
	// recently migrated page is evicted (unmapped and re-fetched on next
	// touch) — the oversubscription behaviour MMU-less NPUs cannot offer
	// at all (§I: "nor can [they] oversubscribe the NPU memory").
	LocalCapacity int64
	// MosaicPromoteThreshold is the number of resident 4 KB pages within
	// one 2 MB region that triggers promotion under DemandPagingMosaic
	// (0 selects 64, an eighth of the region).
	MosaicPromoteThreshold int
}

// DefaultSystem returns the paper's Table I platform with 4 NPUs.
func DefaultSystem() SystemConfig {
	return SystemConfig{
		NumNPUs:              4,
		CPULinkBytesPerCycle: 16,
		NPULinkBytesPerCycle: 160,
		NUMALatency:          150,
		HostOverhead:         5000,
		FaultOverhead:        2000,
		LocalMemory:          memsys.Baseline(),
	}
}

// Breakdown is the latency decomposition of Figure 15.
type Breakdown struct {
	EmbeddingLookup sim.Cycle
	GEMM            sim.Cycle
	Reduction       sim.Cycle
	Else            sim.Cycle
}

// Total returns the end-to-end latency.
func (b Breakdown) Total() sim.Cycle {
	return b.EmbeddingLookup + b.GEMM + b.Reduction + b.Else
}

// Result summarizes one recommendation-inference simulation.
type Result struct {
	Model    string
	Batch    int
	Mode     Mode
	MMUKind  core.Kind
	PageSize vm.PageSize

	Breakdown Breakdown

	Lookups       int
	RemoteLookups int
	Iteration     int // which consecutive batch this result describes
	Faults        int64
	MigratedBytes int64
	BytesGathered int64
	Promotions    int64 // 2 MB region promotions (DemandPagingMosaic)
	Evictions     int64 // pages evicted under oversubscription

	MMU core.Stats

	// Counters is the audited counter bundle (internal/counters),
	// cumulative over the session like MMU: memory-system counts sum the
	// local memory and every interconnect link, and the cycle-phase fields
	// stay zero (the case study reports Breakdown instead).
	Counters counters.Bundle
}

// Run simulates one inference batch of the recommendation model on NPU 0
// of the system, under the given remote-gather mode and MMU kind.
func Run(cfg embeddings.Config, batch int, mode Mode, mmuKind core.Kind,
	ps vm.PageSize, sys SystemConfig) (*Result, error) {
	results, err := RunIterations(cfg, batch, 1, mode, mmuKind, ps, sys)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunIterations simulates several consecutive inference batches sharing
// MMU, TLB, and demand-paged residency state: the first batch runs cold,
// later batches profit from pages already migrated (or suffer thrashing
// when the local capacity is oversubscribed). Each batch draws a fresh
// seeded trace.
func RunIterations(cfg embeddings.Config, batch, iterations int, mode Mode,
	mmuKind core.Kind, ps vm.PageSize, sys SystemConfig) ([]*Result, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("numa: batch must be positive")
	}
	if iterations <= 0 {
		return nil, fmt.Errorf("numa: iterations must be positive")
	}
	if sys.NumNPUs < 2 {
		return nil, fmt.Errorf("numa: need at least 2 NPUs, got %d", sys.NumNPUs)
	}
	if mode == BaselineCopy && mmuKind != core.Oracle {
		// The baseline NPU has no MMU: local gathers use base+bound
		// addressing, modeled as oracle translations.
		mmuKind = core.Oracle
	}
	ses := newSession(cfg, mode, mmuKind, ps, sys)
	var out []*Result
	for it := 0; it < iterations; it++ {
		seedCfg := cfg
		seedCfg.Seed = cfg.Seed + int64(it)*7919
		res, err := ses.runBatch(seedCfg.Trace(batch), batch, it)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// session holds the state shared across consecutive inference batches.
type session struct {
	cfg     embeddings.Config
	mode    Mode
	mmuKind core.Kind
	ps      vm.PageSize
	sys     SystemConfig

	regions      []vm.Region
	pt           *vm.PageTable
	remoteFrames map[int]*vm.FrameAllocator
	q            *sim.Queue
	mmu          *core.MMU
	eng          *dma.Engine
	pg           *pager
	localMem     *memsys.Memory
	remoteMem    map[int]*memsys.Memory

	cumulative Result // running totals the pager writes into
}

func newSession(cfg embeddings.Config, mode Mode, mmuKind core.Kind,
	ps vm.PageSize, sys SystemConfig) *session {
	ses := &session{
		cfg: cfg, mode: mode, mmuKind: mmuKind, ps: ps, sys: sys,
		pt:           vm.NewPageTable(),
		remoteFrames: make(map[int]*vm.FrameAllocator),
		q:            &sim.Queue{},
	}
	space := vm.NewSpace(0x10_0000_0000, ps)
	ses.regions = cfg.Layout(space)

	ses.mmu = core.New(core.ConfigFor(mmuKind, ps), ses.pt, ses.q)
	localMem := memsys.New(sys.LocalMemory, ses.q)

	// Interconnect memories: one per remote NPU so per-link bandwidth is
	// honored, with the NUMA hop folded into the access latency.
	linkBW := sys.NPULinkBytesPerCycle
	if mode == NUMASlow {
		linkBW = sys.CPULinkBytesPerCycle
	}
	remoteMem := make(map[int]*memsys.Memory)
	for src := 1; src < sys.NumNPUs; src++ {
		mc := sys.LocalMemory
		mc.Channels = 1
		mc.BytesPerCycle = linkBW
		mc.Latency = sys.LocalMemory.Latency + sys.NUMALatency
		remoteMem[src] = memsys.New(mc, ses.q)
	}
	ses.localMem = localMem
	ses.remoteMem = remoteMem

	ses.eng = dma.New(ses.q, ses.mmu, localMem)
	ses.eng.Router = func(device int) *memsys.Memory {
		if device == 0 {
			return localMem
		}
		return remoteMem[device]
	}

	// Demand paging: fault -> fixed overhead -> page migration over the
	// interconnect -> map locally -> retry. Concurrent faults on one page
	// coalesce; oversubscription evicts LRU pages; the Mosaic mode
	// promotes hot 2 MB regions (see pager.go).
	migrationLink := sim.NewRateLimiter(sys.CPULinkBytesPerCycle, 1)
	if mode == NUMAFast || mode == DemandPaging || mode == DemandPagingMosaic {
		migrationLink = sim.NewRateLimiter(sys.NPULinkBytesPerCycle, 1)
	}
	ses.pg = newPager(ses.q, ses.pt, ses.mmu, &migrationLink, sys, ps,
		mode == DemandPagingMosaic, &ses.cumulative)
	ses.mmu.OnFault = ses.pg.fault
	return ses
}

// runBatch executes one inference batch and returns its result. Fault,
// migration, and eviction counters are per-batch deltas.
func (s *session) runBatch(trace []embeddings.Lookup, batch, iteration int) (*Result, error) {
	res := &Result{
		Model: s.cfg.Name, Batch: batch, Mode: s.mode,
		MMUKind: s.mmuKind, PageSize: s.ps,
		Lookups:   len(trace),
		Iteration: iteration,
	}
	before := s.cumulative

	// Partition lookups: table t lives on NPU t%N (Fig 5's
	// model-parallel placement). NPU 0's local tables serve locally.
	home := func(table int) int { return table % s.sys.NumNPUs }
	var local []vm.VirtAddr
	remote := make(map[int][]vm.VirtAddr) // source NPU -> row VAs
	for _, l := range trace {
		va := s.cfg.RowVA(s.regions, l)
		if h := home(l.Table); h == 0 {
			local = append(local, va)
		} else {
			remote[h] = append(remote[h], va)
			res.RemoteLookups++
		}
	}
	res.BytesGathered = int64(len(trace)) * s.cfg.VectorBytes()

	// Extend NPU 0's view of the page tables with newly touched pages.
	if s.pg.localStatic == nil {
		s.pg.localStatic = vm.NewFrameAllocator(64<<30, s.ps, 0)
	}
	mapTouched(s.pt, s.pg.localStatic, local, s.cfg.VectorBytes(), s.ps, 0)
	for src, vas := range remote {
		switch s.mode {
		case NUMASlow, NUMAFast:
			// Remote pages are mapped and owned by the source NPU.
			fa := s.remoteFrames[src]
			if fa == nil {
				fa = vm.NewFrameAllocator(64<<30, s.ps, src)
				s.remoteFrames[src] = fa
			}
			mapTouched(s.pt, fa, vas, s.cfg.VectorBytes(), s.ps, src)
		case DemandPaging, DemandPagingMosaic, BaselineCopy:
			// Unmapped locally; demand paging faults them in, the
			// baseline never addresses them through the MMU.
		}
	}

	// ---- Phase 1: embedding gather ----
	gather := func(vas []vm.VirtAddr) (sim.Cycle, error) {
		if len(vas) == 0 {
			return 0, nil
		}
		segs := make([]tensor.Segment, len(vas))
		for i, va := range vas {
			segs[i] = tensor.Segment{VA: va, Bytes: s.cfg.VectorBytes()}
		}
		start := s.q.Now()
		end := sim.Cycle(-1)
		s.eng.FetchSegments(segs, func(ts dma.TileStats) { end = ts.End })
		s.q.Run()
		if end < 0 {
			return 0, fmt.Errorf("numa: gather of %d vectors deadlocked", len(vas))
		}
		return end - start, nil
	}

	addGather := func(vas []vm.VirtAddr) error {
		c, err := gather(vas)
		if err != nil {
			return err
		}
		res.Breakdown.EmbeddingLookup += c
		return nil
	}

	switch s.mode {
	case BaselineCopy:
		// Local gather through the MMU-less base+bound path.
		if err := addGather(local); err != nil {
			return nil, err
		}
		// Remote gathers: each source NPU gathers its shard (modeled at
		// local-gather speed), then the CPU stages two PCIe copies.
		for _, vas := range sortedRemote(remote) {
			bytes := int64(len(vas)) * s.cfg.VectorBytes()
			gatherCycles := estimateLocalGather(len(vas), s.cfg.VectorBytes(), s.sys)
			copyCycles := 2 * (sim.Cycle(s.sys.HostOverhead) +
				sim.Cycle(s.sys.NUMALatency) +
				sim.Cycle(bytes/s.sys.CPULinkBytesPerCycle))
			res.Breakdown.EmbeddingLookup += gatherCycles + copyCycles
		}
	case NUMASlow, NUMAFast, DemandPaging, DemandPagingMosaic:
		if err := addGather(local); err != nil {
			return nil, err
		}
		for _, vas := range sortedRemote(remote) {
			if err := addGather(vas); err != nil {
				return nil, err
			}
		}
	}

	// ---- Phase 2: dense computation ----
	arr := systolic.Baseline()
	perNPUBatch := (batch + s.sys.NumNPUs - 1) / s.sys.NumNPUs
	res.Breakdown.GEMM = sim.Cycle(mlpCycles(s.cfg, perNPUBatch, arr))
	// Interaction (element-wise product / concatenation reduction).
	interactOps := int64(perNPUBatch) * int64(s.cfg.Dim) * int64(len(s.cfg.Tables))
	res.Breakdown.Reduction = sim.Cycle(interactOps/int64(arr.Rows)) + 64
	// Framework overhead: activation, batching, host dispatch.
	res.Breakdown.Else = sim.Cycle(1000 + 16*perNPUBatch)

	res.Faults = s.cumulative.Faults - before.Faults
	res.MigratedBytes = s.cumulative.MigratedBytes - before.MigratedBytes
	res.Promotions = s.cumulative.Promotions - before.Promotions
	res.Evictions = s.cumulative.Evictions - before.Evictions
	res.MMU = s.mmu.Stats()
	res.Counters = s.collectCounters(res.MMU)
	return res, nil
}

// collectCounters flattens the session's cumulative component stats into
// the standard bundle. Memory traffic sums NPU 0's local memory and every
// interconnect link (the Router directs each translated access to exactly
// one of them, so the sum is the system's DRAM-side view).
func (s *session) collectCounters(mmu core.Stats) counters.Bundle {
	mem := s.localMem.Stats()
	mem.MaxOccupied = 0
	for src := 1; src < 64; src++ {
		m, ok := s.remoteMem[src]
		if !ok {
			continue
		}
		st := m.Stats()
		mem.Accesses += st.Accesses
		mem.Bytes += st.Bytes
		mem.WalkReads += st.WalkReads
	}
	return counters.Collect(counters.Sources{
		MMU:    mmu,
		TLB:    s.mmu.TLBStats(),
		Walker: s.mmu.WalkerStats(),
		Path:   s.mmu.PathStats(),
		Memory: mem,
		DMA: counters.DMAStats{
			Tiles:         int64(s.eng.Tiles()),
			Segments:      s.eng.Segments(),
			Transactions:  s.eng.Transactions(),
			Bytes:         s.eng.Bytes(),
			DistinctPages: s.eng.DistinctPages(),
		},
	})
}

// mapTouched maps every distinct page touched by the row VAs.
func mapTouched(pt *vm.PageTable, fa *vm.FrameAllocator, vas []vm.VirtAddr,
	vecBytes int64, ps vm.PageSize, device int) {
	seen := map[vm.VirtAddr]struct{}{}
	for _, va := range vas {
		for p := vm.PageBase(va, ps); p <= vm.PageBase(va+vm.VirtAddr(vecBytes-1), ps); p += vm.VirtAddr(ps.Bytes()) {
			if _, ok := seen[p]; ok {
				continue
			}
			seen[p] = struct{}{}
			pt.Map(p, fa.Alloc(), ps, device)
		}
	}
}

// estimateLocalGather models a source NPU's local gather for the staged
// baseline: issue-limited at one access per cycle plus memory latency.
func estimateLocalGather(n int, vecBytes int64, sys SystemConfig) sim.Cycle {
	if n == 0 {
		return 0
	}
	bw := sys.LocalMemory.BytesPerCycle
	if bw <= 0 {
		bw = 600
	}
	stream := sim.Cycle(int64(n) * vecBytes / bw)
	issue := sim.Cycle(n)
	if stream > issue {
		issue = stream
	}
	return issue + sim.Cycle(sys.LocalMemory.Latency)
}

func mlpCycles(cfg embeddings.Config, batch int, arr systolic.Array) int64 {
	var cycles int64
	add := func(widths []int, in int) {
		for _, w := range widths {
			cycles += arr.TileCycles(int64(batch), int64(in), int64(w))
			in = w
		}
	}
	add(cfg.TopMLP, cfg.Dim*len(cfg.Tables))
	if len(cfg.BottomMLP) > 0 {
		add(cfg.BottomMLP, 13)
	}
	return cycles
}

// sortedRemote returns remote shards in ascending source order for
// deterministic simulation.
func sortedRemote(remote map[int][]vm.VirtAddr) [][]vm.VirtAddr {
	var out [][]vm.VirtAddr
	for src := 1; src < 64; src++ {
		if vas, ok := remote[src]; ok {
			out = append(out, vas)
		}
	}
	return out
}
