package core

import (
	"testing"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

func prefetchCfg() Config {
	cfg := ConfigFor(NeuMMU, vm.Page4K)
	cfg.PrefetchNext = true
	return cfg
}

func TestPrefetchFillsNextPage(t *testing.T) {
	r := newMMURig(t, prefetchCfg(), 4)
	translate(r.mmu, r.page(0), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	if r.mmu.Stats().Prefetches == 0 {
		t.Fatal("no prefetch issued after a demand walk")
	}
	// The next page's translation should now hit in the TLB.
	start := r.q.Now()
	var at sim.Cycle
	translate(r.mmu, r.page(1), func(_ vm.Entry, now sim.Cycle) { at = now })
	r.q.Run()
	if at-start != 5 {
		t.Fatalf("prefetched page took %d cycles, want a 5-cycle TLB hit", at-start)
	}
}

func TestPrefetchCascadeIsBounded(t *testing.T) {
	// A prefetch completing triggers at most one further prefetch per
	// demand walk chain; with 4 mapped pages the chain must stop at the
	// region edge (faulting prefetches are dropped silently).
	r := newMMURig(t, prefetchCfg(), 4)
	translate(r.mmu, r.page(0), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	s := r.mmu.Stats()
	if s.Faults != 0 {
		t.Fatalf("speculative walks surfaced %d faults", s.Faults)
	}
	if s.Prefetches > 8 {
		t.Fatalf("prefetch cascade ran away: %d", s.Prefetches)
	}
}

func TestPrefetchSkipsCachedPages(t *testing.T) {
	r := newMMURig(t, prefetchCfg(), 4)
	// Warm pages 0 and 1.
	translate(r.mmu, r.page(0), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	before := r.mmu.Stats().Prefetches
	// Page 1 now hits in the TLB; a hit issues no walk and no prefetch.
	translate(r.mmu, r.page(1), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	if got := r.mmu.Stats().Prefetches; got != before {
		t.Fatalf("TLB hit issued %d extra prefetches", got-before)
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	r := newMMURig(t, ConfigFor(NeuMMU, vm.Page4K), 4)
	translate(r.mmu, r.page(0), func(vm.Entry, sim.Cycle) {})
	r.q.Run()
	if r.mmu.Stats().Prefetches != 0 {
		t.Fatal("prefetches issued without PrefetchNext")
	}
}

func TestPrefetchNeverBlocksDemandTraffic(t *testing.T) {
	// With a single walker, the speculative walk must not be issued
	// while the walker is needed (FreeWalkers()==0 gating).
	cfg := prefetchCfg()
	cfg.Walker.NumPTWs = 1
	r := newMMURig(t, cfg, 8)
	done := 0
	for i := 0; i < 4; i++ {
		if r.mmu.Stalled() {
			r.q.Run()
		}
		translate(r.mmu, r.page(2*i), func(vm.Entry, sim.Cycle) { done++ })
		r.q.Run()
	}
	if done != 4 {
		t.Fatalf("demand translations completed = %d, want 4", done)
	}
}
