package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"neummu/internal/vm"
)

func small() *TLB {
	return New(Config{Entries: 8, Ways: 2, HitLatency: 5, PageSize: vm.Page4K})
}

func TestMissThenHit(t *testing.T) {
	tl := small()
	va := vm.VirtAddr(0x1000)
	if _, _, hit := tl.Lookup(va); hit {
		t.Fatal("cold TLB must miss")
	}
	tl.Fill(va, 0xAB000, 1)
	frame, dev, hit := tl.Lookup(va + 0x123) // same page, different offset
	if !hit || frame != 0xAB000 || dev != 1 {
		t.Fatalf("hit=%v frame=%#x dev=%d", hit, frame, dev)
	}
	s := tl.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way sets: fill three pages mapping to the same set; the least
	// recently used must be evicted.
	tl := New(Config{Entries: 8, Ways: 2, HitLatency: 5, PageSize: vm.Page4K})
	nsets := 4
	pageA := vm.VirtAddr(0 * nsets * 4096)
	pageB := vm.VirtAddr(1 * nsets * 4096)
	pageC := vm.VirtAddr(2 * nsets * 4096)
	tl.Fill(pageA, 0xA000, 0)
	tl.Fill(pageB, 0xB000, 0)
	tl.Lookup(pageA) // A is now MRU
	tl.Fill(pageC, 0xC000, 0)
	if !tl.Contains(pageA) {
		t.Fatal("MRU entry A was evicted")
	}
	if tl.Contains(pageB) {
		t.Fatal("LRU entry B survived")
	}
	if !tl.Contains(pageC) {
		t.Fatal("new entry C missing")
	}
	if tl.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tl.Stats().Evictions)
	}
}

func TestRefillRefreshes(t *testing.T) {
	tl := small()
	va := vm.VirtAddr(0x2000)
	tl.Fill(va, 0x1000, 0)
	tl.Fill(va, 0x9000, 2) // remap after migration
	frame, dev, hit := tl.Lookup(va)
	if !hit || frame != 0x9000 || dev != 2 {
		t.Fatalf("refill not visible: %#x dev=%d hit=%v", frame, dev, hit)
	}
	if tl.Occupancy() != 1 {
		t.Fatalf("refill duplicated entry: occupancy=%d", tl.Occupancy())
	}
}

func TestInvalidate(t *testing.T) {
	tl := small()
	va := vm.VirtAddr(0x3000)
	tl.Fill(va, 0x1000, 0)
	tl.Invalidate(va)
	if tl.Contains(va) {
		t.Fatal("entry survived invalidation")
	}
	tl.Invalidate(va) // idempotent
}

// A refill must find a resident copy past an invalidated hole: installing
// a second copy in the hole let the next Invalidate remove only the first,
// and the stale one kept hitting.
func TestRefillPastHoleThenInvalidate(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 4, HitLatency: 5, PageSize: vm.Page4K})
	for p := 0; p < 4; p++ {
		tl.Fill(vm.VirtAddr(p)<<12, vm.PhysAddr(p)<<12, 0)
	}
	tl.Invalidate(0)
	tl.Fill(2<<12, 2<<12, 0) // redundant walk refills a resident page
	tl.Invalidate(2 << 12)
	if _, _, hit := tl.Lookup(2 << 12); hit {
		t.Fatal("page 2 still hits after Invalidate")
	}
	if n := tl.Occupancy(); n != 2 {
		t.Fatalf("occupancy = %d, want 2 (pages 1 and 3)", n)
	}
}

// Property: under any mix of Fill, Invalidate and Lookup, a VPN has at
// most one valid entry, an invalidated page misses, and a hit returns the
// frame of the page's latest fill.
func TestOneEntryPerVPNUnderInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tl := New(Config{Entries: 8, Ways: 4, HitLatency: 5, PageSize: vm.Page4K})
		frames := map[uint64]vm.PhysAddr{} // latest fill of each page
		for op := 0; op < 200; op++ {
			vpn := uint64(rng.Intn(12))
			va := vm.VirtAddr(vpn) << 12
			switch rng.Intn(3) {
			case 0:
				f := vm.PhysAddr(rng.Intn(1<<20)) << 12
				tl.Fill(va, f, 0)
				frames[vpn] = f
			case 1:
				tl.Invalidate(va)
				if tl.Contains(va) {
					t.Fatalf("trial %d op %d: page %d resident after Invalidate", trial, op, vpn)
				}
			default:
				if f, _, hit := tl.Lookup(va); hit && f != frames[vpn] {
					t.Fatalf("trial %d op %d: page %d hit frame %#x, latest fill %#x", trial, op, vpn, f, frames[vpn])
				}
			}
			seen := map[uint64]bool{}
			for _, set := range tl.sets {
				for _, e := range set {
					if e.valid {
						if seen[e.vpn] {
							t.Fatalf("trial %d op %d: page %d has two valid entries", trial, op, e.vpn)
						}
						seen[e.vpn] = true
					}
				}
			}
		}
	}
}

func TestFlush(t *testing.T) {
	tl := small()
	for i := 0; i < 8; i++ {
		tl.Fill(vm.VirtAddr(i*4096), vm.PhysAddr(i*4096), 0)
	}
	tl.Flush()
	if tl.Occupancy() != 0 {
		t.Fatalf("occupancy after flush = %d", tl.Occupancy())
	}
}

func TestFullyAssociative(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 0, HitLatency: 1, PageSize: vm.Page4K})
	// With full associativity, any 4 pages coexist regardless of address.
	for i := 0; i < 4; i++ {
		tl.Fill(vm.VirtAddr(i*4096*1024), 0, 0)
	}
	for i := 0; i < 4; i++ {
		if !tl.Contains(vm.VirtAddr(i * 4096 * 1024)) {
			t.Fatalf("page %d evicted from non-full FA TLB", i)
		}
	}
	tl.Fill(vm.VirtAddr(99*4096), 0, 0)
	if tl.Occupancy() != 4 {
		t.Fatalf("FA occupancy = %d, want 4", tl.Occupancy())
	}
}

func TestLargePageGranularity(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 4, HitLatency: 5, PageSize: vm.Page2M})
	tl.Fill(0, 0x4000_0000, 0)
	// Any address within the same 2MB page hits.
	if _, _, hit := tl.Lookup(vm.VirtAddr(vm.Page2M.Bytes() - 1)); !hit {
		t.Fatal("2MB-page TLB missed inside the filled page")
	}
	if _, _, hit := tl.Lookup(vm.VirtAddr(vm.Page2M.Bytes())); hit {
		t.Fatal("2MB-page TLB hit outside the filled page")
	}
}

func TestBaselineConfig(t *testing.T) {
	cfg := Baseline(vm.Page4K)
	if cfg.Entries != 2048 || cfg.HitLatency != 5 {
		t.Fatalf("baseline config = %+v", cfg)
	}
	tl := New(cfg)
	if tl.HitLatency() != 5 {
		t.Fatal("hit latency lost")
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(pages []uint16) bool {
		tl := New(Config{Entries: 32, Ways: 4, HitLatency: 5, PageSize: vm.Page4K})
		for _, p := range pages {
			tl.Fill(vm.VirtAddr(p)<<12, 0, 0)
		}
		return tl.Occupancy() <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after filling a page it is always resident until at least
// Ways-1 further distinct fills to the same set occur.
func TestFillVisibleImmediately(t *testing.T) {
	f := func(raw uint32) bool {
		tl := small()
		va := vm.VirtAddr(raw) << 12
		tl.Fill(va, 0x5000, 0)
		return tl.Contains(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsConservation(t *testing.T) {
	tl := New(Baseline(vm.Page4K))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		va := vm.VirtAddr(rng.Intn(4096)) << 12
		if _, _, hit := tl.Lookup(va); !hit {
			tl.Fill(va, 0, 0)
		}
	}
	s := tl.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("hits+misses != lookups: %+v", s)
	}
	if s.Fills != s.Misses {
		t.Fatalf("each miss should fill exactly once: %+v", s)
	}
	if hr := s.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v out of range for mixed workload", hr)
	}
}

func TestHitRateEmptyIsZero(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty stats hit rate must be 0")
	}
}

func TestNewRejectsZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Entries: 0})
}
