package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"neummu/internal/sim"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// Liveness property: for ANY walker/TLB geometry and ANY request stream
// obeying the back-pressure contract, every accepted translation
// eventually completes and the event queue drains. This is the invariant
// a deadlocked merge path or lost capacity notification would break (we
// shipped and fixed exactly such a bug in the draining-walker merge).
func TestNoDeadlockProperty(t *testing.T) {
	f := func(ptwSel, prmbSel, tlbSel, qSel uint8, addrSeed int64, nReq uint8) bool {
		ptws := []int{1, 2, 4, 8}[ptwSel%4]
		prmb := []int{0, 1, 4, 16}[prmbSel%4]
		entries := []int{4, 16, 64}[tlbSel%3]
		queue := []int{1, 4, 16}[qSel%3]
		usePTS := prmbSel%2 == 0

		q := &sim.Queue{}
		pt := vm.NewPageTable()
		const pages = 32
		for i := 0; i < pages; i++ {
			pt.Map(vm.VirtAddr(i)<<12, vm.PhysAddr(i)<<12, vm.Page4K, 0)
		}
		cfg := Config{
			Kind:     Custom,
			PageSize: vm.Page4K,
			TLB:      tlb.Config{Entries: entries, Ways: 4, HitLatency: 5, PageSize: vm.Page4K},
			Walker: walker.Config{
				NumPTWs: ptws, PRMBSlots: prmb, UsePTS: usePTS,
				QueueDepth: queue, LevelLatency: 100,
				PageSize: vm.Page4K,
			},
		}
		m := New(cfg, pt, q)
		rng := rand.New(rand.NewSource(addrSeed))

		want := int(nReq)%200 + 1
		done := 0
		issued := 0
		var issue func(now sim.Cycle)
		issue = func(now sim.Cycle) {
			for issued < want && !m.Stalled() {
				va := vm.VirtAddr(rng.Intn(pages))<<12 + vm.VirtAddr(rng.Intn(4096))
				translate(m, va, func(vm.Entry, sim.Cycle) { done++ })
				issued++
				// Give the TLB probe a chance to land so stalls surface.
				q.RunUntil(q.Now() + 1)
			}
		}
		m.OnUnblocked = issue
		issue(0)
		// Bounded drain: if the queue never empties or requests are lost,
		// the property fails.
		if !q.RunUntil(10_000_000) {
			return false
		}
		// After drain, no stall may persist and everything accepted must
		// have completed. Any requests not yet issued (stalled at the
		// very end) get one more chance.
		issue(q.Now())
		q.Run()
		return done == issued && issued == want && !m.Stalled()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Fault-storm liveness: when every page faults and resolves after a random
// delay, all requests still complete.
func TestFaultStormLiveness(t *testing.T) {
	q := &sim.Queue{}
	pt := vm.NewPageTable()
	m := New(ConfigFor(NeuMMU, vm.Page4K), pt, q)
	rng := rand.New(rand.NewSource(42))
	resolved := map[vm.VirtAddr]bool{}
	// Each fault parks its page and resolver; the landing event's payload
	// indexes them.
	type fault struct {
		page    vm.VirtAddr
		resolve func()
	}
	var faults []fault
	landed := q.Register(sim.HandlerFunc(func(_ sim.Cycle, arg int64) {
		f := faults[arg]
		if !resolved[f.page] {
			pt.Map(f.page, vm.PhysAddr(f.page), vm.Page4K, 0)
			resolved[f.page] = true
		}
		f.resolve()
	}))
	m.OnFault = func(va vm.VirtAddr, now sim.Cycle, resolve func()) {
		faults = append(faults, fault{vm.PageBase(va, vm.Page4K), resolve})
		delay := sim.Cycle(rng.Intn(5000) + 1)
		q.CallAfter(delay, landed, int64(len(faults)-1))
	}
	done := 0
	const want = 300
	issued := 0
	var issue func(now sim.Cycle)
	issue = func(now sim.Cycle) {
		for issued < want && !m.Stalled() {
			va := vm.VirtAddr(rng.Intn(64)) << 12
			translate(m, va, func(vm.Entry, sim.Cycle) { done++ })
			issued++
			q.RunUntil(q.Now() + 1)
		}
	}
	m.OnUnblocked = issue
	issue(0)
	q.Run()
	issue(q.Now())
	q.Run()
	if done != want {
		t.Fatalf("completed %d of %d under fault storm", done, want)
	}
}
