package walker

import (
	"testing"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

// testRig wires a pool to a page table with n pre-mapped 4K pages starting
// at VA 0x100000.
type testRig struct {
	q    *sim.Queue
	pt   *vm.PageTable
	pool *Pool
	done []doneRec
}

type doneRec struct {
	req Request
	e   vm.Entry
	at  sim.Cycle
}

const rigBase = vm.VirtAddr(0x100000)

func newRig(t *testing.T, cfg Config, pages int) *testRig {
	t.Helper()
	r := &testRig{q: &sim.Queue{}, pt: vm.NewPageTable()}
	for i := 0; i < pages; i++ {
		va := rigBase + vm.VirtAddr(i)*vm.VirtAddr(vm.Page4K.Bytes())
		r.pt.Map(va, vm.PhysAddr(i)<<12, vm.Page4K, 0)
	}
	r.pool = NewPool(cfg, r.pt, r.q)
	r.pool.OnComplete = func(req Request, e vm.Entry, at sim.Cycle) {
		r.done = append(r.done, doneRec{req, e, at})
	}
	r.pool.OnFault = func(req Request, at sim.Cycle) {
		t.Fatalf("unexpected fault for %#x", req.VA)
	}
	return r
}

func (r *testRig) page(i int) vm.VirtAddr {
	return rigBase + vm.VirtAddr(i)*vm.VirtAddr(vm.Page4K.Bytes())
}

func TestSingleWalkLatency(t *testing.T) {
	r := newRig(t, Config{NumPTWs: 1, LevelLatency: 100, PageSize: vm.Page4K}, 4)
	if !r.pool.Submit(Request{VA: r.page(0)}) {
		t.Fatal("submit rejected on idle pool")
	}
	r.q.Run()
	if len(r.done) != 1 {
		t.Fatalf("%d completions, want 1", len(r.done))
	}
	// 4 levels × 100 cycles with no path cache.
	if r.done[0].at != 400 {
		t.Fatalf("walk completed at %d, want 400", r.done[0].at)
	}
	if r.done[0].e.Frame != 0 {
		t.Fatalf("bad frame %#x", r.done[0].e.Frame)
	}
	s := r.pool.Stats()
	if s.WalksStarted != 1 || s.WalkMemAccesses != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLargePageWalkIsThreeLevels(t *testing.T) {
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	pt.Map(0x4000_0000, 0, vm.Page2M, 0)
	cfg := Config{NumPTWs: 1, LevelLatency: 100, PageSize: vm.Page2M}
	p := NewPool(cfg, pt, q)
	var at sim.Cycle
	p.OnComplete = func(_ Request, _ vm.Entry, now sim.Cycle) { at = now }
	p.Submit(Request{VA: 0x4000_0123})
	q.Run()
	if at != 300 {
		t.Fatalf("2MB walk completed at %d, want 300", at)
	}
}

func TestPTSMergesSamePage(t *testing.T) {
	cfg := Config{NumPTWs: 2, PRMBSlots: 4, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	r := newRig(t, cfg, 4)
	va := r.page(0)
	for i := 0; i < 3; i++ {
		if !r.pool.Submit(Request{VA: va + vm.VirtAddr(i*64), Seq: uint64(i)}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	r.q.Run()
	s := r.pool.Stats()
	if s.WalksStarted != 1 {
		t.Fatalf("%d walks for one page, want 1 (merging broken)", s.WalksStarted)
	}
	if s.Merges != 2 {
		t.Fatalf("merges = %d, want 2", s.Merges)
	}
	if len(r.done) != 3 {
		t.Fatalf("%d completions, want 3", len(r.done))
	}
	// Initial completes at 400; merged drain at 401, 402.
	if r.done[0].at != 400 || r.done[1].at != 401 || r.done[2].at != 402 {
		t.Fatalf("completion times %v %v %v, want 400 401 402",
			r.done[0].at, r.done[1].at, r.done[2].at)
	}
}

func TestPRMBFullBlocks(t *testing.T) {
	cfg := Config{NumPTWs: 1, PRMBSlots: 1, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	r := newRig(t, cfg, 4)
	va := r.page(0)
	if !r.pool.Submit(Request{VA: va}) || !r.pool.Submit(Request{VA: va + 64}) {
		t.Fatal("first two submissions should be accepted")
	}
	if r.pool.Submit(Request{VA: va + 128}) {
		t.Fatal("third same-page submission must block: PRMB full")
	}
	s := r.pool.Stats()
	if s.MergeFails != 1 || s.Rejected != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAllPTWsBusyBlocksWithPTS(t *testing.T) {
	cfg := Config{NumPTWs: 2, PRMBSlots: 4, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	r := newRig(t, cfg, 8)
	if !r.pool.Submit(Request{VA: r.page(0)}) || !r.pool.Submit(Request{VA: r.page(1)}) {
		t.Fatal("two distinct pages should occupy two PTWs")
	}
	if r.pool.Submit(Request{VA: r.page(2)}) {
		t.Fatal("third distinct page must block: no free PTW")
	}
	if r.pool.Busy() != 2 {
		t.Fatalf("busy = %d", r.pool.Busy())
	}
}

func TestOnCapacityFiresAfterRejection(t *testing.T) {
	cfg := Config{NumPTWs: 1, PRMBSlots: 0, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	r := newRig(t, cfg, 4)
	fired := false
	r.pool.OnCapacity = func(now sim.Cycle) {
		fired = true
		if now != 400 {
			t.Fatalf("capacity freed at %d, want 400", now)
		}
	}
	r.pool.Submit(Request{VA: r.page(0)})
	if r.pool.Submit(Request{VA: r.page(1)}) {
		t.Fatal("second page should be rejected")
	}
	r.q.Run()
	if !fired {
		t.Fatal("OnCapacity never fired")
	}
}

func TestBaselineRedundantWalks(t *testing.T) {
	// Without PTS, concurrent same-page misses start redundant walks —
	// the energy pathology of Fig 12.
	cfg := BaselineIOMMU(vm.Page4K)
	r := newRig(t, cfg, 4)
	va := r.page(0)
	for i := 0; i < 8; i++ {
		if !r.pool.Submit(Request{VA: va + vm.VirtAddr(i)}) {
			t.Fatalf("submit %d rejected with 8 free PTWs", i)
		}
	}
	r.q.Run()
	s := r.pool.Stats()
	if s.WalksStarted != 8 {
		t.Fatalf("walks = %d, want 8 redundant walks without PTS", s.WalksStarted)
	}
	if s.RedundantWalks != 7 {
		t.Fatalf("redundant = %d, want 7", s.RedundantWalks)
	}
	if s.WalkMemAccesses != 32 {
		t.Fatalf("walk accesses = %d, want 32", s.WalkMemAccesses)
	}
}

func TestBaselineFIFOQueue(t *testing.T) {
	cfg := Config{NumPTWs: 1, QueueDepth: 2, LevelLatency: 100,
		PageSize: vm.Page4K}
	r := newRig(t, cfg, 8)
	// One walking + two queued = 3 accepted, 4th rejected.
	for i := 0; i < 3; i++ {
		if !r.pool.Submit(Request{VA: r.page(i), Seq: uint64(i)}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if r.pool.Submit(Request{VA: r.page(3)}) {
		t.Fatal("queue overflow not detected")
	}
	if r.pool.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", r.pool.Pending())
	}
	r.q.Run()
	if len(r.done) != 3 {
		t.Fatalf("completions = %d", len(r.done))
	}
	// FIFO order: walks serialize at 400, 800, 1200.
	for i, want := range []sim.Cycle{400, 800, 1200} {
		if r.done[i].at != want {
			t.Fatalf("completion %d at %v, want %v", i, r.done[i].at, want)
		}
		if r.done[i].req.Seq != uint64(i) {
			t.Fatalf("completion order broken: got seq %d at slot %d", r.done[i].req.Seq, i)
		}
	}
}

func TestTPregSkipsLevels(t *testing.T) {
	cfg := Config{NumPTWs: 1, UsePTS: true, LevelLatency: 100,
		Path: PathTPreg, PageSize: vm.Page4K}
	r := newRig(t, cfg, 4)
	// First walk: cold TPreg, full 4 accesses. Second walk to the
	// adjacent page shares L4/L3/L2, so only the leaf is read.
	r.pool.Submit(Request{VA: r.page(0)})
	r.q.Run()
	r.pool.Submit(Request{VA: r.page(1)})
	r.q.Run()
	s := r.pool.Stats()
	if s.WalkMemAccesses != 5 {
		t.Fatalf("walk accesses = %d, want 4+1", s.WalkMemAccesses)
	}
	if s.SkippedLevels != 3 {
		t.Fatalf("skipped = %d, want 3", s.SkippedLevels)
	}
	ps := r.pool.PathStats()
	l4, l3, l2 := ps.Rates()
	if l4 != 0.5 || l3 != 0.5 || l2 != 0.5 {
		t.Fatalf("rates = %v %v %v, want 0.5 each", l4, l3, l2)
	}
}

func TestFaultPath(t *testing.T) {
	q := &sim.Queue{}
	pt := vm.NewPageTable() // nothing mapped
	cfg := Config{NumPTWs: 1, LevelLatency: 100, PageSize: vm.Page4K}
	p := NewPool(cfg, pt, q)
	faulted := false
	p.OnComplete = func(Request, vm.Entry, sim.Cycle) { t.Fatal("unmapped VA completed") }
	p.OnFault = func(req Request, now sim.Cycle) { faulted = true }
	p.Submit(Request{VA: 0xdead000})
	q.Run()
	if !faulted {
		t.Fatal("fault handler never fired")
	}
	if p.Stats().Faults != 1 {
		t.Fatalf("faults = %d", p.Stats().Faults)
	}
}

func TestMergedRequestsShareFaultOutcome(t *testing.T) {
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	cfg := Config{NumPTWs: 1, PRMBSlots: 4, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	p := NewPool(cfg, pt, q)
	faults := 0
	p.OnComplete = func(Request, vm.Entry, sim.Cycle) { t.Fatal("unexpected complete") }
	p.OnFault = func(Request, sim.Cycle) { faults++ }
	p.Submit(Request{VA: 0xdead000})
	p.Submit(Request{VA: 0xdead040})
	q.Run()
	if faults != 2 {
		t.Fatalf("faults = %d, want both requests to fault", faults)
	}
}

func TestPoolThroughputScalesWithPTWs(t *testing.T) {
	// 64 distinct pages: 8 PTWs take 8 rounds (3200 cy), 64 PTWs one round.
	run := func(ptws int) sim.Cycle {
		cfg := Config{NumPTWs: ptws, PRMBSlots: 4, UsePTS: true,
			LevelLatency: 100, PageSize: vm.Page4K}
		r := newRig(t, cfg, 64)
		pending := make([]Request, 0, 64)
		for i := 0; i < 64; i++ {
			pending = append(pending, Request{VA: r.page(i)})
		}
		var pump func(now sim.Cycle)
		pump = func(now sim.Cycle) {
			for len(pending) > 0 && r.pool.Submit(pending[0]) {
				pending = pending[1:]
			}
		}
		r.pool.OnCapacity = pump
		pump(0)
		return r.q.Run()
	}
	t8, t64 := run(8), run(64)
	if t64 >= t8 {
		t.Fatalf("64 PTWs (%d cy) not faster than 8 PTWs (%d cy)", t64, t8)
	}
	if t8 < 3200 {
		t.Fatalf("8 PTWs finished in %d cy, expected at least 3200", t8)
	}
	if t64 != 400 {
		t.Fatalf("64 PTWs finished in %d cy, want a single 400 cy round", t64)
	}
}

func TestStatsConservation(t *testing.T) {
	cfg := Config{NumPTWs: 4, PRMBSlots: 8, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}
	r := newRig(t, cfg, 32)
	accepted := 0
	for i := 0; i < 200; i++ {
		if r.pool.Submit(Request{VA: r.page(i % 32), Seq: uint64(i)}) {
			accepted++
		}
		if i%5 == 4 {
			r.q.Run() // drain periodically so capacity frees
		}
	}
	r.q.Run()
	s := r.pool.Stats()
	if int(s.Requests) != accepted {
		t.Fatalf("requests %d != accepted %d", s.Requests, accepted)
	}
	if len(r.done) != accepted {
		t.Fatalf("completions %d != accepted %d", len(r.done), accepted)
	}
	if s.WalksStarted != s.WalksCompleted {
		t.Fatalf("walks started %d != completed %d", s.WalksStarted, s.WalksCompleted)
	}
	if s.Merges != s.PRMBWrites || s.PRMBReads != s.Merges {
		t.Fatalf("PRMB accounting broken: %+v", s)
	}
	if s.Requests != s.WalksStarted+s.Merges {
		t.Fatalf("requests %d != walks %d + merges %d", s.Requests, s.WalksStarted, s.Merges)
	}
}

func TestNeuMMUAndBaselinePresets(t *testing.T) {
	n := NeuMMU(vm.Page4K)
	if n.NumPTWs != 128 || n.PRMBSlots != 32 || !n.UsePTS || n.Path != PathTPreg {
		t.Fatalf("NeuMMU preset = %+v", n)
	}
	b := BaselineIOMMU(vm.Page4K)
	if b.NumPTWs != 8 || b.UsePTS || b.Path != PathNone {
		t.Fatalf("baseline preset = %+v", b)
	}
}
