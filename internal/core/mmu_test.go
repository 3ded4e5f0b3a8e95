package core

import (
	"testing"

	"neummu/internal/sim"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

type mmuRig struct {
	q   *sim.Queue
	pt  *vm.PageTable
	mmu *MMU
}

const rigBase = vm.VirtAddr(0x100000)

func newMMURig(t *testing.T, cfg Config, pages int) *mmuRig {
	t.Helper()
	r := &mmuRig{q: &sim.Queue{}, pt: vm.NewPageTable()}
	for i := 0; i < pages; i++ {
		va := rigBase + vm.VirtAddr(i)*vm.VirtAddr(vm.Page4K.Bytes())
		r.pt.Map(va, vm.PhysAddr(i)<<12, vm.Page4K, 0)
	}
	r.mmu = New(cfg, r.pt, r.q)
	return r
}

func (r *mmuRig) page(i int) vm.VirtAddr {
	return rigBase + vm.VirtAddr(i)*vm.VirtAddr(vm.Page4K.Bytes())
}

func TestOracleResolvesInstantly(t *testing.T) {
	r := newMMURig(t, Config{Kind: Oracle, PageSize: vm.Page4K}, 2)
	var got vm.Entry
	var at sim.Cycle = -1
	r.mmu.Translate(r.page(1), func(e vm.Entry, now sim.Cycle) { got, at = e, now })
	if at != 0 {
		t.Fatalf("oracle completion at %d, want immediate (cycle 0)", at)
	}
	if got.Frame != 1<<12 {
		t.Fatalf("frame = %#x", got.Frame)
	}
	s := r.mmu.Stats()
	if s.OracleHits != 1 || s.Latency.Mean() != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTLBHitLatency(t *testing.T) {
	r := newMMURig(t, ConfigFor(NeuMMU, vm.Page4K), 2)
	// Cold miss walks (5 probe + 400 walk); second access hits in 5.
	var first, second sim.Cycle
	r.mmu.Translate(r.page(0), func(_ vm.Entry, now sim.Cycle) { first = now })
	r.q.Run()
	if first != 405 {
		t.Fatalf("cold translation at %d, want 405 (5 TLB + 4×100 walk)", first)
	}
	start := r.q.Now()
	r.mmu.Translate(r.page(0), func(_ vm.Entry, now sim.Cycle) { second = now })
	r.q.Run()
	if second-start != 5 {
		t.Fatalf("warm translation took %d, want 5", second-start)
	}
	s := r.mmu.Stats()
	if s.TLBHits != 1 || s.TLBMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTPregAcceleratesSecondWalk(t *testing.T) {
	r := newMMURig(t, ConfigFor(NeuMMU, vm.Page4K), 2)
	r.mmu.Translate(r.page(0), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	var at sim.Cycle
	start := r.q.Now()
	// Adjacent page: TLB miss, but TPreg holds the upper path → 1 level.
	r.mmu.Translate(r.page(1), func(_ vm.Entry, now sim.Cycle) { at = now })
	r.q.Run()
	if at-start != 105 {
		t.Fatalf("TPreg walk took %d, want 105 (5 TLB + 1×100)", at-start)
	}
}

func TestBackPressureAndUnblock(t *testing.T) {
	cfg := Config{
		Kind:     Custom,
		PageSize: vm.Page4K,
		TLB:      tlb.Config{Entries: 16, Ways: 4, HitLatency: 5, PageSize: vm.Page4K},
		Walker: walker.Config{NumPTWs: 1, PRMBSlots: 0, UsePTS: true,
			LevelLatency: 100, PageSize: vm.Page4K, DrainPerCycle: true},
	}
	r := newMMURig(t, cfg, 4)
	unblocked := false
	r.mmu.OnUnblocked = func(now sim.Cycle) { unblocked = true }
	done := 0
	issued := 0
	// Model the DMA contract: issue while not stalled, resume on unblock.
	for i := 0; i < 3; i++ {
		if r.mmu.Stalled() {
			break
		}
		r.mmu.Translate(r.page(i), func(vm.Entry, sim.Cycle) { done++ })
		issued++
		// Let the TLB probes land so misses reach the pool.
		r.q.RunUntil(r.q.Now() + 5)
	}
	if !r.mmu.Stalled() {
		t.Fatal("MMU should stall with 1 PTW and multiple distinct misses")
	}
	if issued != 2 {
		t.Fatalf("issued %d before stall, want 2", issued)
	}
	r.q.Run()
	if done != 2 {
		t.Fatalf("completions = %d, want 2", done)
	}
	if !unblocked {
		t.Fatal("OnUnblocked never fired")
	}
	if r.mmu.Stalled() {
		t.Fatal("MMU still stalled after drain")
	}
	if r.mmu.Stats().StallEnter == 0 {
		t.Fatal("stall never counted")
	}
}

func TestTranslateWhileStalledPanics(t *testing.T) {
	cfg := Config{
		Kind:     Custom,
		PageSize: vm.Page4K,
		TLB:      tlb.Config{Entries: 16, Ways: 4, HitLatency: 5, PageSize: vm.Page4K},
		Walker: walker.Config{NumPTWs: 1, PRMBSlots: 0, UsePTS: true,
			LevelLatency: 100, PageSize: vm.Page4K, DrainPerCycle: true},
	}
	r := newMMURig(t, cfg, 4)
	for i := 0; i < 3 && !r.mmu.Stalled(); i++ {
		r.mmu.Translate(r.page(i), func(vm.Entry, sim.Cycle) {})
		r.q.RunUntil(r.q.Now() + 5)
	}
	if !r.mmu.Stalled() {
		t.Skip("expected stall did not occur")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Translate while stalled must panic")
		}
	}()
	r.mmu.Translate(r.page(3), func(vm.Entry, sim.Cycle) {})
}

func TestFaultHandlerResolvesAndRetries(t *testing.T) {
	r := newMMURig(t, ConfigFor(NeuMMU, vm.Page4K), 0) // nothing mapped
	va := rigBase
	faults := 0
	var resolveFault func()
	landed := r.q.Register(sim.HandlerFunc(func(sim.Cycle, int64) {
		r.pt.Map(va, 0x7000, vm.Page4K, 0)
		resolveFault()
	}))
	r.mmu.OnFault = func(fva vm.VirtAddr, now sim.Cycle, resolve func()) {
		faults++
		if fva != va {
			t.Fatalf("fault VA %#x, want %#x", fva, va)
		}
		// Model a 1000-cycle migration, then map and resolve.
		resolveFault = resolve
		r.q.CallAfter(1000, landed, 0)
	}
	var got vm.Entry
	var at sim.Cycle
	r.mmu.Translate(va, func(e vm.Entry, now sim.Cycle) { got, at = e, now })
	r.q.Run()
	if faults != 1 {
		t.Fatalf("faults = %d", faults)
	}
	if got.Frame != 0x7000 {
		t.Fatalf("frame after fault = %#x", got.Frame)
	}
	// 5 (probe) + 400 (walk→fault) + 1000 (migration) + 5 + 400 (rewalk).
	if at < 1800 {
		t.Fatalf("fault path completed at %d, expected ≥ 1800", at)
	}
	s := r.mmu.Stats()
	if s.Faults != 1 || s.Retries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOracleFaultsStillSurface(t *testing.T) {
	r := newMMURig(t, Config{Kind: Oracle, PageSize: vm.Page4K}, 0)
	va := rigBase
	r.mmu.OnFault = func(fva vm.VirtAddr, now sim.Cycle, resolve func()) {
		r.pt.Map(va, 0x3000, vm.Page4K, 0)
		resolve()
	}
	done := false
	r.mmu.Translate(va, func(e vm.Entry, _ sim.Cycle) {
		done = true
		if e.Frame != 0x3000 {
			t.Fatalf("frame = %#x", e.Frame)
		}
	})
	r.q.Run()
	if !done {
		t.Fatal("oracle fault never resolved")
	}
}

// Instant counts a mapped page exactly as TranslateTag's oracle branch
// does, and counts nothing for an unmapped page or a non-oracle MMU.
func TestInstantCountsLikeTranslate(t *testing.T) {
	cfg := Config{Kind: Oracle, PageSize: vm.Page4K}
	a, b := newMMURig(t, cfg, 2), newMMURig(t, cfg, 2)
	got, ok := a.mmu.Instant(a.page(1))
	var want vm.Entry
	b.mmu.Translate(b.page(1), func(e vm.Entry, _ sim.Cycle) { want = e })
	if !ok || got != want || a.mmu.Stats() != b.mmu.Stats() {
		t.Fatalf("Instant = %+v, %v with stats %+v; Translate gave %+v with %+v",
			got, ok, a.mmu.Stats(), want, b.mmu.Stats())
	}
	before := a.mmu.Stats()
	if _, ok := a.mmu.Instant(a.page(5)); ok || a.mmu.Stats() != before {
		t.Fatalf("Instant on an unmapped page reported %v and moved stats to %+v", ok, a.mmu.Stats())
	}
	io := newMMURig(t, ConfigFor(IOMMU, vm.Page4K), 2)
	if _, ok := io.mmu.Instant(io.page(1)); ok || io.mmu.Stats() != (Stats{}) || io.q.Len() != 0 {
		t.Fatal("Instant must decline on a non-oracle MMU without counting or scheduling")
	}
}

func TestUnhandledFaultPanics(t *testing.T) {
	r := newMMURig(t, Config{Kind: Oracle, PageSize: vm.Page4K}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unhandled fault must panic")
		}
	}()
	r.mmu.Translate(rigBase, func(vm.Entry, sim.Cycle) {})
}

// A probe event with no probe in the ring can only come from a mis-wired
// model; it must panic rather than deliver a zero translation.
func TestProbeEventWithoutProbePanics(t *testing.T) {
	r := newMMURig(t, ConfigFor(IOMMU, vm.Page4K), 1)
	r.q.Call(0, r.mmu.hProbe, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("probe event with an empty ring must panic")
		}
	}()
	r.q.Run()
}

func TestInvalidateTLBForcesRewalk(t *testing.T) {
	r := newMMURig(t, ConfigFor(NeuMMU, vm.Page4K), 1)
	r.mmu.Translate(r.page(0), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	r.mmu.InvalidateTLB(r.page(0))
	r.mmu.Translate(r.page(0), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	if r.mmu.Stats().TLBMisses != 2 {
		t.Fatalf("misses = %d, want 2 after invalidation", r.mmu.Stats().TLBMisses)
	}
}

func TestConfigForPresets(t *testing.T) {
	io := ConfigFor(IOMMU, vm.Page4K)
	if io.Walker.NumPTWs != 8 || io.Walker.UsePTS {
		t.Fatalf("IOMMU preset = %+v", io.Walker)
	}
	nm := ConfigFor(NeuMMU, vm.Page2M)
	if nm.Walker.NumPTWs != 128 || nm.Walker.PRMBSlots != 32 {
		t.Fatalf("NeuMMU preset = %+v", nm.Walker)
	}
	if nm.TLB.Entries != 2048 {
		t.Fatalf("TLB preset = %+v", nm.TLB)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Oracle: "oracle", IOMMU: "iommu", NeuMMU: "neummu", Custom: "custom",
	} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestIOMMURedundantWalksVisible(t *testing.T) {
	// Burst of same-page misses on the baseline: every one walks.
	r := newMMURig(t, ConfigFor(IOMMU, vm.Page4K), 1)
	for i := 0; i < 4; i++ {
		r.mmu.Translate(r.page(0)+vm.VirtAddr(i*64), func(vm.Entry, sim.Cycle) {})
	}
	r.q.Run()
	ws := r.mmu.WalkerStats()
	if ws.WalksStarted != 4 || ws.RedundantWalks != 3 {
		t.Fatalf("walker stats = %+v, want 4 walks / 3 redundant", ws)
	}
	// NeuMMU merges the same burst into one walk.
	r2 := newMMURig(t, ConfigFor(NeuMMU, vm.Page4K), 1)
	for i := 0; i < 4; i++ {
		r2.mmu.Translate(r2.page(0)+vm.VirtAddr(i*64), func(vm.Entry, sim.Cycle) {})
	}
	r2.q.Run()
	ws2 := r2.mmu.WalkerStats()
	if ws2.WalksStarted != 1 || ws2.Merges != 3 {
		t.Fatalf("NeuMMU walker stats = %+v, want 1 walk / 3 merges", ws2)
	}
}

func TestLatencyDistributionRecorded(t *testing.T) {
	r := newMMURig(t, ConfigFor(NeuMMU, vm.Page4K), 4)
	for i := 0; i < 4; i++ {
		r.mmu.Translate(r.page(i), func(vm.Entry, sim.Cycle) {})
		r.q.Run()
	}
	lat := r.mmu.Stats().Latency
	if lat.N != 4 {
		t.Fatalf("latency samples = %d", lat.N)
	}
	if lat.Max < 405 || lat.Min < 5 {
		t.Fatalf("latency dist = %+v", lat)
	}
}
