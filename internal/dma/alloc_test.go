package dma

import (
	"testing"

	"neummu/internal/core"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/tensor"
	"neummu/internal/vm"
)

// Splitting a tile into transactions happens once per tile fetch; with a
// reused buffer it must be allocation-free in steady state (the public
// SplitSegments convenience wrapper still allocates a fresh slice). The
// budget runs in CI under -race.
func TestAppendTransactionsSteadyStateAllocFree(t *testing.T) {
	segs := []tensor.Segment{
		{VA: 0x1000_0000, Bytes: 64 << 10},
		{VA: 0x1800_0100, Bytes: 32 << 10},
		{VA: 0x2000_0fff, Bytes: 5000},
	}
	// Warm: grow the buffer to the tile's working size.
	buf := AppendTransactions(nil, segs, vm.Page4K, 0)
	want := len(buf)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendTransactions(buf[:0], segs, vm.Page4K, 0)
	})
	if allocs != 0 {
		t.Errorf("AppendTransactions reuse allocates %v objects per op, want 0", allocs)
	}
	if len(buf) != want {
		t.Fatalf("reused split produced %d transactions, want %d", len(buf), want)
	}
	if diff := len(SplitSegments(segs, vm.Page4K, 0)); diff != want {
		t.Fatalf("SplitSegments produced %d transactions, want %d", diff, want)
	}
}

// TestKVStreamFetchSteadyStateAllocFree drives the whole engine fetch
// path — segment split, the booked issue chain and TLB probes, walks,
// stalls, memory completion — with KV-cache-decode-shaped tiles (one
// small query run plus a long multi-page KV prefix) on every canonical
// MMU, and asserts the steady state stays on the zero-allocation budget.
func TestKVStreamFetchSteadyStateAllocFree(t *testing.T) {
	for _, kind := range []core.Kind{core.Oracle, core.IOMMU, core.NeuMMU} {
		q := &sim.Queue{}
		pt := vm.NewPageTable()
		fa := vm.NewFrameAllocator(64<<20, vm.Page4K, 0)
		for va := vm.VirtAddr(0); va < 32<<20; va += 4096 {
			pt.Map(va, fa.Alloc(), vm.Page4K, 0)
		}
		mmu := core.New(core.ConfigFor(kind, vm.Page4K), pt, q)
		mem := memsys.New(memsys.Baseline(), q)
		eng := New(q, mmu, mem)

		// Decode-step shape: a 3 KB query row plus a 2600-row KV prefix
		// (2600 × 6 KB ≈ 15 MB across ~3900 pages). That is more pages
		// than the 2048-entry TLB holds, so every fetch misses, walks and,
		// on the IOMMU, stalls.
		kv := tensor.New("attn/KV", 0x10_0000, 4, 1, 2600, 1536)
		qrow := tensor.New("attn/Q", 0x1000, 4, 1, 64, 768)
		views := []tensor.View{
			tensor.ViewOf(kv, tensor.Full(1), tensor.Range{Lo: 0, Hi: 2600}, tensor.Full(1536)),
			tensor.ViewOf(qrow, tensor.Full(1), tensor.Range{Lo: 0, Hi: 1}, tensor.Full(768)),
		}
		done := func(TileStats) {}
		fetch := func() {
			eng.FetchViews(views, done)
			q.Run()
		}
		// Warm: grow txn/seg buffers, the page set, the event heap and
		// lanes, the probe ring and the walkers' buffers.
		for i := 0; i < 3; i++ {
			fetch()
		}
		if allocs := testing.AllocsPerRun(20, fetch); allocs != 0 {
			t.Errorf("%s: KV-stream tile fetch allocates %v objects per op, want 0", kind, allocs)
		}
		if kind != core.Oracle && (mmu.TLBStats().Misses == 0 || (kind == core.IOMMU && mmu.Stats().StallEnter == 0)) {
			t.Fatalf("%s: fetches never missed the TLB or stalled: %+v", kind, mmu.Stats())
		}
	}
}

// TestWatchIsolatesKVStream: with a watch region over the KV range, the
// tile stats must split watched traffic from the rest of the fetch.
func TestWatchIsolatesKVStream(t *testing.T) {
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	fa := vm.NewFrameAllocator(16<<20, vm.Page4K, 0)
	for va := vm.VirtAddr(0); va < 8<<20; va += 4096 {
		pt.Map(va, fa.Alloc(), vm.Page4K, 0)
	}
	mmu := core.New(core.ConfigFor(core.Oracle, vm.Page4K), pt, q)
	mem := memsys.New(memsys.Baseline(), q)
	eng := New(q, mmu, mem)

	region := vm.Region{Name: "attn/KV", Base: 0x40_0000, Size: 1 << 20}
	eng.Watch = &region

	segs := []tensor.Segment{
		{VA: 0x1000, Bytes: 8 << 10},     // outside the watch
		{VA: 0x40_0000, Bytes: 64 << 10}, // inside: 64 txns over 16 pages
	}
	var got TileStats
	eng.FetchSegments(segs, func(ts TileStats) { got = ts })
	q.Run()
	if got.Transactions != 72 {
		t.Fatalf("transactions = %d, want 72", got.Transactions)
	}
	if got.WatchedTransactions != 64 {
		t.Fatalf("watched transactions = %d, want 64", got.WatchedTransactions)
	}
	if got.WatchedPages != 16 {
		t.Fatalf("watched pages = %d, want 16", got.WatchedPages)
	}
	if got.DistinctPages != 18 {
		t.Fatalf("distinct pages = %d, want 18", got.DistinctPages)
	}

	// Clearing the watch restores zeroed watched fields.
	eng.Watch = nil
	eng.FetchSegments(segs, func(ts TileStats) { got = ts })
	q.Run()
	if got.WatchedTransactions != 0 || got.WatchedPages != 0 {
		t.Fatalf("watch cleared but stats = %+v", got)
	}
}
