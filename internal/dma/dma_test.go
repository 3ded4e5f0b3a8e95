package dma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"neummu/internal/core"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/stats"
	"neummu/internal/tensor"
	"neummu/internal/vm"
)

func TestSplitSegmentsWithinPage(t *testing.T) {
	segs := []tensor.Segment{{VA: 0x1000, Bytes: 100}}
	txns := SplitSegments(segs, vm.Page4K, 0)
	if len(txns) != 1 || txns[0].Bytes != 100 {
		t.Fatalf("txns = %+v", txns)
	}
}

func TestSplitSegmentsAcrossPages(t *testing.T) {
	// A run from 0xF00 of length 0x300 crosses one 4K boundary.
	segs := []tensor.Segment{{VA: 0xF00, Bytes: 0x300}}
	txns := SplitSegments(segs, vm.Page4K, 0)
	if len(txns) != 2 {
		t.Fatalf("txns = %+v", txns)
	}
	if txns[0].VA != 0xF00 || txns[0].Bytes != 0x100 {
		t.Fatalf("first = %+v", txns[0])
	}
	if txns[1].VA != 0x1000 || txns[1].Bytes != 0x200 {
		t.Fatalf("second = %+v", txns[1])
	}
}

func TestSplitSegmentsLargeRun(t *testing.T) {
	segs := []tensor.Segment{{VA: 0, Bytes: 5 << 20}} // 5 MB
	txns := SplitSegments(segs, vm.Page4K, 0)
	want := 5 << 20 / DefaultBurst
	if len(txns) != want {
		t.Fatalf("%d transactions, want %d (one per burst)", len(txns), want)
	}
	// Page size no longer dominates once bursts are finer than a page,
	// but unlimited bursts split only at page boundaries.
	txnsPage := SplitSegments(segs, vm.Page4K, 4096)
	if len(txnsPage) != 5<<20/4096 {
		t.Fatalf("%d page-burst transactions, want one per page", len(txnsPage))
	}
	txns2M := SplitSegments(segs, vm.Page2M, 2<<20)
	if len(txns2M) != 3 {
		t.Fatalf("%d transactions under 2MB pages/bursts, want 3", len(txns2M))
	}
}

// Property: splitting conserves bytes, keeps every transaction inside one
// page, and preserves address order.
func TestSplitSegmentsProperty(t *testing.T) {
	f := func(startRaw uint32, length uint32) bool {
		start := vm.VirtAddr(startRaw)
		n := int64(length%200000) + 1
		segs := []tensor.Segment{{VA: start, Bytes: n}}
		txns := SplitSegments(segs, vm.Page4K, 0)
		var total int64
		prevEnd := start
		for _, tx := range txns {
			if tx.VA != prevEnd {
				return false
			}
			if vm.PageNumber(tx.VA, vm.Page4K) != vm.PageNumber(tx.VA+vm.VirtAddr(tx.Bytes-1), vm.Page4K) {
				return false
			}
			total += tx.Bytes
			prevEnd = tx.VA + vm.VirtAddr(tx.Bytes)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type dmaRig struct {
	q   *sim.Queue
	pt  *vm.PageTable
	mmu *core.MMU
	mem *memsys.Memory
	eng *Engine
}

func newDMARig(t *testing.T, kind core.Kind, mappedMB int) *dmaRig {
	t.Helper()
	r := &dmaRig{q: &sim.Queue{}, pt: vm.NewPageTable()}
	fa := vm.NewFrameAllocator(uint64(mappedMB)<<21, vm.Page4K, 0)
	for va := vm.VirtAddr(0); va < vm.VirtAddr(mappedMB<<20); va += 4096 {
		r.pt.Map(va, fa.Alloc(), vm.Page4K, 0)
	}
	r.mmu = core.New(core.ConfigFor(kind, vm.Page4K), r.pt, r.q)
	r.mem = memsys.New(memsys.Baseline(), r.q)
	r.eng = New(r.q, r.mmu, r.mem)
	return r
}

func TestFetchCompletesAllBytes(t *testing.T) {
	r := newDMARig(t, core.Oracle, 2)
	tn := tensor.New("IA", 0, 1, 64, 1024) // 64 KB
	var got TileStats
	doneFired := false
	r.eng.FetchViews([]tensor.View{tensor.ViewOf(tn, tensor.Full(64), tensor.Full(1024))},
		func(ts TileStats) { got, doneFired = ts, true })
	r.q.Run()
	if !doneFired {
		t.Fatal("fetch never completed")
	}
	if got.Bytes != 64*1024 {
		t.Fatalf("bytes = %d", got.Bytes)
	}
	if got.DistinctPages != 16 {
		t.Fatalf("distinct pages = %d, want 16", got.DistinctPages)
	}
	if got.Transactions != 64 {
		t.Fatalf("transactions = %d, want 64 (1KB bursts)", got.Transactions)
	}
	if got.Duration() <= 0 {
		t.Fatal("tile has no duration")
	}
}

func TestOracleFasterThanIOMMU(t *testing.T) {
	run := func(kind core.Kind) sim.Cycle {
		r := newDMARig(t, kind, 2)
		tn := tensor.New("IA", 0, 1, 256, 1024) // 256 KB = 64 pages
		var end sim.Cycle
		r.eng.FetchViews([]tensor.View{tensor.ViewOf(tn, tensor.Full(256), tensor.Full(1024))},
			func(ts TileStats) { end = ts.End })
		r.q.Run()
		return end
	}
	oracle := run(core.Oracle)
	iommu := run(core.IOMMU)
	neu := run(core.NeuMMU)
	if iommu <= oracle {
		t.Fatalf("IOMMU (%d) not slower than oracle (%d)", iommu, oracle)
	}
	if neu >= iommu {
		t.Fatalf("NeuMMU (%d) not faster than IOMMU (%d)", neu, iommu)
	}
	// NeuMMU should land within 2x of oracle for this streaming fetch.
	if float64(neu) > 2.2*float64(oracle) {
		t.Fatalf("NeuMMU %d vs oracle %d: gap too large", neu, oracle)
	}
}

func TestIOMMUBackPressureStalls(t *testing.T) {
	r := newDMARig(t, core.IOMMU, 2)
	// 128 distinct pages in a burst: 8 PTWs with a 16-deep queue must stall.
	tn := tensor.New("IA", 0, 1, 128, 4096)
	var got TileStats
	r.eng.FetchViews([]tensor.View{tensor.ViewOf(tn, tensor.Full(128), tensor.Full(4096))},
		func(ts TileStats) { got = ts })
	r.q.Run()
	if got.StallCycles == 0 {
		t.Fatal("expected issue stalls under baseline IOMMU")
	}
	if r.mmu.Stats().StallEnter == 0 {
		t.Fatal("MMU never recorded a stall")
	}
}

func TestTimelineRecordsBurst(t *testing.T) {
	r := newDMARig(t, core.Oracle, 2)
	r.eng.Timeline = stats.NewTimeSeries(100)
	tn := tensor.New("IA", 0, 1, 100, 4096)
	r.eng.FetchViews([]tensor.View{tensor.ViewOf(tn, tensor.Full(100), tensor.Full(4096))},
		func(TileStats) {})
	r.q.Run()
	// Oracle: 100 translations issued back-to-back, 1/cycle → the first
	// window holds 100 issues.
	if got := r.eng.Timeline.Buckets()[0]; got != 100 {
		t.Fatalf("first window = %d, want 100", got)
	}
}

func TestVATraceSeesEveryTransaction(t *testing.T) {
	r := newDMARig(t, core.Oracle, 2)
	var vas []vm.VirtAddr
	r.eng.VATrace = func(va vm.VirtAddr, _ sim.Cycle) { vas = append(vas, va) }
	tn := tensor.New("IA", 0, 1, 4, 4096)
	r.eng.FetchViews([]tensor.View{tensor.ViewOf(tn, tensor.Full(4), tensor.Full(4096))},
		func(TileStats) {})
	r.q.Run()
	if len(vas) != 16 {
		t.Fatalf("trace has %d entries, want 16 (4 rows x 4 bursts)", len(vas))
	}
}

func TestSequentialTilesAccumulateStats(t *testing.T) {
	r := newDMARig(t, core.NeuMMU, 4)
	tn := tensor.New("IA", 0, 1, 16, 4096)
	runTile := func(lo, hi int) {
		done := false
		r.eng.FetchViews([]tensor.View{tensor.ViewOf(tn, tensor.Range{Lo: lo, Hi: hi}, tensor.Full(4096))},
			func(TileStats) { done = true })
		r.q.Run()
		if !done {
			t.Fatal("tile did not complete")
		}
	}
	runTile(0, 8)
	runTile(8, 16)
	if r.eng.Tiles() != 2 {
		t.Fatalf("tiles = %d", r.eng.Tiles())
	}
	if r.eng.Transactions() != 64 {
		t.Fatalf("transactions = %d, want 64", r.eng.Transactions())
	}
	pd := r.eng.PageDivergence()
	if pd.N != 2 || pd.Mean() != 8 {
		t.Fatalf("page divergence = %+v", pd)
	}
}

func TestEmptyFetchCompletesImmediately(t *testing.T) {
	r := newDMARig(t, core.Oracle, 1)
	fired := false
	r.eng.FetchSegments(nil, func(ts TileStats) {
		fired = true
		if ts.Transactions != 0 || ts.Bytes != 0 {
			t.Fatalf("stats = %+v", ts)
		}
	})
	r.q.Run()
	if !fired {
		t.Fatal("empty fetch never completed")
	}
}

func TestMergedTranslationsStillFetchData(t *testing.T) {
	// Several sub-page transactions to the same page must each produce a
	// memory access even though their translations merge in the PRMB.
	r := newDMARig(t, core.NeuMMU, 1)
	segs := []tensor.Segment{
		{VA: 0x0, Bytes: 256},
		{VA: 0x400, Bytes: 256},
		{VA: 0x800, Bytes: 256},
	}
	var got TileStats
	r.eng.FetchSegments(segs, func(ts TileStats) { got = ts })
	r.q.Run()
	if got.Transactions != 3 || got.Bytes != 768 {
		t.Fatalf("stats = %+v", got)
	}
	if r.mem.Stats().Accesses != 3 {
		t.Fatalf("memory accesses = %d, want 3", r.mem.Stats().Accesses)
	}
	ws := r.mmu.WalkerStats()
	if ws.WalksStarted != 1 {
		t.Fatalf("walks = %d, want 1 (others merged)", ws.WalksStarted)
	}
}

// TestOracleTileFiresOneEvent pins the event cost of an oracle tile:
// translation is immediate and nothing else is pending, so the engine
// books all N transactions at fetch time and the tile fires exactly one
// event, its end, which is the only event ever queued.
func TestOracleTileFiresOneEvent(t *testing.T) {
	r := newDMARig(t, core.Oracle, 4)
	segs := []tensor.Segment{{VA: 0x1000, Bytes: 3 << 20}} // bandwidth-bound
	n := int64(len(SplitSegments(segs, vm.Page4K, 0)))
	var got TileStats
	r.eng.FetchSegments(segs, func(ts TileStats) { got = ts })
	if r.q.Len() != 1 {
		t.Errorf("queue holds %d events after the fetch, want only the tile end", r.q.Len())
	}
	r.q.Run()
	if int64(got.Transactions) != n {
		t.Fatalf("tile retired %d transactions, want %d", got.Transactions, n)
	}
	if r.q.Fired() != 1 {
		t.Errorf("tile of %d transactions fired %d events, want 1", n, r.q.Fired())
	}
	// The tile ends at its last booked arrival, past the last issue.
	if got.End != r.mem.DrainTime() || got.End <= sim.Cycle(n) {
		t.Errorf("tile ended at %d, want the memory drain time %d", got.End, r.mem.DrainTime())
	}
}

// countPages must equal a plain set count on any transaction list: runs of
// consecutive transactions, revisited pages, random gathers, and with or
// without a narrowing region.
func TestCountPagesMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := &Engine{pageSet: map[uint64]struct{}{}}
	ps := vm.Page4K
	for trial := 0; trial < 2000; trial++ {
		var txns []Transaction
		for r := rng.Intn(4); r >= 0; r-- {
			va := vm.VirtAddr(rng.Intn(64)) << 12
			for n := rng.Intn(40); n > 0; n-- {
				txns = append(txns, Transaction{VA: va, Bytes: 512})
				if trial%3 == 0 {
					va = vm.VirtAddr(rng.Intn(64))<<12 + vm.VirtAddr(rng.Intn(4096))
				} else {
					va += vm.VirtAddr(rng.Intn(2048))
				}
			}
		}
		region := &vm.Region{Base: vm.VirtAddr(rng.Intn(32)) << 12, Size: uint64(rng.Intn(32)) << 12}
		for _, in := range []*vm.Region{nil, region} {
			want := map[uint64]bool{}
			for _, tx := range txns {
				if in == nil || in.Contains(tx.VA) {
					want[vm.PageNumber(tx.VA, ps)] = true
				}
			}
			if got := e.countPages(txns, ps, in); got != len(want) {
				t.Fatalf("trial %d, region %v: countPages = %d, want %d", trial, in, got, len(want))
			}
		}
	}
}
