package walker

import (
	"testing"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

func TestLargePageTPregCapsSkip(t *testing.T) {
	// 2 MB walks have 3 levels; a full TPreg match may skip at most 2
	// (the L2 leaf access itself cannot be skipped).
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	pt.Map(0x4000_0000, 0, vm.Page2M, 0)
	pt.Map(0x4000_0000+vm.VirtAddr(vm.Page2M.Bytes()), 0x20_0000, vm.Page2M, 0)
	cfg := Config{NumPTWs: 1, UsePTS: true, LevelLatency: 100,
		Path: PathTPreg, PageSize: vm.Page2M}
	p := NewPool(cfg, pt, q)
	var last sim.Cycle
	p.OnComplete = func(_ Request, _ vm.Entry, now sim.Cycle) { last = now }
	p.Submit(Request{VA: 0x4000_0000})
	q.Run()
	if last != 300 {
		t.Fatalf("cold 2MB walk at %d, want 300", last)
	}
	start := q.Now()
	// The adjacent 2 MB page shares L4/L3 but differs at L2; TPreg can
	// skip at most 2 levels and here skips exactly 2 → 1 access.
	p.Submit(Request{VA: 0x4000_0000 + vm.VirtAddr(vm.Page2M.Bytes())})
	q.Run()
	if got := q.Now() - start; got != 100 {
		t.Fatalf("TPreg-assisted 2MB walk took %d, want 100", got)
	}
	if s := p.Stats(); s.WalkMemAccesses != 4 {
		t.Fatalf("walk accesses = %d, want 3+1", s.WalkMemAccesses)
	}
}

func TestDrainOrderPreservesMergeOrder(t *testing.T) {
	cfg := Config{NumPTWs: 1, PRMBSlots: 8, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	pt.Map(0x1000, 0x9000, vm.Page4K, 0)
	p := NewPool(cfg, pt, q)
	var seqs []uint64
	p.OnComplete = func(r Request, _ vm.Entry, _ sim.Cycle) { seqs = append(seqs, r.Seq) }
	for i := uint64(0); i < 5; i++ {
		if !p.Submit(Request{VA: 0x1000 + vm.VirtAddr(i*64), Seq: i}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	q.Run()
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("drain order broken: %v", seqs)
		}
	}
}

func TestWalkerReusePrefersLIFO(t *testing.T) {
	// Freed walkers are reused LIFO so a hot walker's TPreg stays warm.
	cfg := Config{NumPTWs: 4, UsePTS: true, LevelLatency: 100,
		Path: PathTPreg, PageSize: vm.Page4K}
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	for i := 0; i < 16; i++ {
		pt.Map(vm.VirtAddr(i)<<12, vm.PhysAddr(i)<<12, vm.Page4K, 0)
	}
	p := NewPool(cfg, pt, q)
	p.OnComplete = func(Request, vm.Entry, sim.Cycle) {}
	// Sequential pages one at a time: the same walker should serve all of
	// them, so after the cold walk every walk skips 3 levels.
	for i := 0; i < 8; i++ {
		p.Submit(Request{VA: vm.VirtAddr(i) << 12})
		q.Run()
	}
	s := p.Stats()
	want := int64(4 + 7*1)
	if s.WalkMemAccesses != want {
		t.Fatalf("walk accesses = %d, want %d (LIFO reuse keeps TPreg warm)",
			s.WalkMemAccesses, want)
	}
}

func TestSpillToWalkerWhenPRMBFull(t *testing.T) {
	// §IV-A: blocking happens only when walkers AND merge slots are all
	// full; a full PRMB with idle walkers spills into a redundant walk.
	cfg := Config{NumPTWs: 4, PRMBSlots: 1, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	pt.Map(0x1000, 0x9000, vm.Page4K, 0)
	p := NewPool(cfg, pt, q)
	done := 0
	p.OnComplete = func(Request, vm.Entry, sim.Cycle) { done++ }
	for i := 0; i < 4; i++ {
		if !p.Submit(Request{VA: 0x1000 + vm.VirtAddr(i*64)}) {
			t.Fatalf("submit %d rejected with idle walkers", i)
		}
	}
	q.Run()
	s := p.Stats()
	// 1 walk + 1 merge + 2 spilled redundant walks.
	if s.WalksStarted != 3 || s.Merges != 1 || s.RedundantWalks != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if done != 4 {
		t.Fatalf("completions = %d", done)
	}
}
