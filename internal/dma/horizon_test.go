package dma

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"neummu/internal/core"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/stats"
	"neummu/internal/tensor"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// The differential rigs. The engine books its issue chain and TLB probes
// up to the queue's horizon (book). Two reference rigs run the chain on
// events instead: a ticked rig keeps a no-op event pending at every
// cycle, so its horizon is never more than a cycle away and every
// booking is cut and handed back at once; a chain rig counts an issue
// event pending at all times, so the engine never books and runs the
// plain event chain. All three rigs run the same random machine and
// tiles, and everything observable must agree.

// issue is one observed translation issue.
type issue struct {
	va vm.VirtAddr
	at sim.Cycle
}

// rigSpec is one machine the differential tests build twice.
type rigSpec struct {
	mmu   core.Config
	span  uint64        // bytes mapped from VA 0
	holes []vm.VirtAddr // pages left unmapped until their first fault resolves
	// delay is how long a fault takes to resolve; below zero, OnFault
	// resolves it before returning.
	delay sim.Cycle
}

func (s rigSpec) String() string {
	return fmt.Sprintf("%s %s tlb %+v walker %+v holes %d delay %d",
		s.mmu.Kind, s.mmu.PageSize, s.mmu.TLB, s.mmu.Walker, len(s.holes), s.delay)
}

// mode selects how a rig runs the issue chain.
type mode int

const (
	booked  mode = iota // the engine as it is
	ticked              // a no-op event at every cycle
	chained             // the plain event chain
)

// rig is one engine with Timeline, VATrace, Watch and a fault handler
// attached.
type rig struct {
	spec    rigSpec
	mode    mode
	q       *sim.Queue
	pt      *vm.PageTable
	mmu     *core.MMU
	mem     *memsys.Memory
	eng     *Engine
	tick    sim.HandlerID // the ticked rig's every-cycle no-op
	noop    sim.HandlerID
	foreign sim.HandlerID
	resolve sim.HandlerID
	pending []fault

	issues []issue
	tiles  []TileStats
	faults []sim.Cycle
	seen   []seen
}

// seen is what a foreign event observes when it fires: how far the
// chain had got.
type seen struct {
	at               sim.Cycle
	issues, accesses int64
}

// fault is one page fault awaiting its resolution event.
type fault struct {
	va      vm.VirtAddr
	resolve func()
}

func newRig(spec rigSpec, m mode) *rig {
	ps := spec.mmu.PageSize
	r := &rig{spec: spec, mode: m, q: &sim.Queue{}, pt: vm.NewPageTable()}
	fa := vm.NewFrameAllocator(2*spec.span, ps, 0)
	for va := vm.VirtAddr(0); va < vm.VirtAddr(spec.span); va += vm.VirtAddr(ps.Bytes()) {
		frame := fa.Alloc()
		if !r.isHole(va) {
			r.pt.Map(va, frame, ps, 0)
		}
	}
	r.mmu = core.New(spec.mmu, r.pt, r.q)
	r.mem = memsys.New(memsys.Baseline(), r.q)
	r.eng = New(r.q, r.mmu, r.mem)
	if m == chained {
		// Another issue event counts as pending forever: the engine
		// takes the plain chain at every fetch, issue and unblock.
		r.eng.issues = 1 << 40
	}
	r.eng.Timeline = stats.NewTimeSeries(64)
	r.eng.VATrace = func(va vm.VirtAddr, now sim.Cycle) { r.issues = append(r.issues, issue{va, now}) }
	r.eng.Watch = &vm.Region{Name: "watch", Base: vm.VirtAddr(spec.span / 4), Size: spec.span / 2}
	r.tick = r.q.Register(sim.HandlerFunc(func(sim.Cycle, int64) {
		if r.q.Len() > 0 {
			r.q.CallAfter(1, r.tick, 0)
		}
	}))
	r.noop = r.q.Register(sim.HandlerFunc(func(sim.Cycle, int64) {}))
	r.foreign = r.q.Register(sim.HandlerFunc(func(now sim.Cycle, _ int64) {
		r.seen = append(r.seen, seen{now, int64(len(r.issues)), r.mem.Stats().Accesses})
	}))
	r.resolve = r.q.Register(sim.HandlerFunc(func(_ sim.Cycle, i int64) { r.fix(r.pending[i]) }))
	r.mmu.OnFault = func(va vm.VirtAddr, now sim.Cycle, resolve func()) {
		r.faults = append(r.faults, now)
		if spec.delay < 0 {
			r.fix(fault{va, resolve})
			return
		}
		r.pending = append(r.pending, fault{va, resolve})
		r.q.Call(now+spec.delay, r.resolve, int64(len(r.pending)-1))
	}
	return r
}

func (r *rig) isHole(va vm.VirtAddr) bool {
	for _, h := range r.spec.holes {
		if vm.PageBase(h, r.spec.mmu.PageSize) == vm.PageBase(va, r.spec.mmu.PageSize) {
			return true
		}
	}
	return false
}

// fix maps a faulting page, unless an earlier fault already did, and
// retries the translation.
func (r *rig) fix(f fault) {
	ps := r.spec.mmu.PageSize
	if _, _, err := r.pt.Walk(f.va); err != nil {
		r.pt.Map(vm.PageBase(f.va, ps), vm.PhysAddr(4*r.spec.span)+vm.PhysAddr(vm.PageBase(f.va, ps)), ps, 0)
	}
	f.resolve()
}

// fetch runs a group of tiles to quiescence: each tile after the first is
// fetched from its predecessor's done callback, while that tile's walker
// events may still be pending. Foreign events land at the given offsets
// from the group's start, cut the booking loop there, and record how far
// the chain had got when they fired.
func (r *rig) fetch(t *testing.T, group [][]tensor.Segment, foreign []sim.Cycle) {
	t.Helper()
	if r.mode == ticked {
		r.q.CallAfter(0, r.tick, 0)
	}
	for _, off := range foreign {
		r.q.CallAfter(off, r.foreign, 0)
	}
	done := 0
	var next func(TileStats)
	next = func(ts TileStats) {
		r.tiles = append(r.tiles, ts)
		if done++; done < len(group) {
			r.eng.FetchSegments(group[done], next)
		}
	}
	r.eng.FetchSegments(group[0], next)
	r.q.Run()
	if done != len(group) {
		t.Fatalf("%s: %d of %d tiles completed", r.spec, done, len(group))
	}
}

// waitUntil idles the rig until cycle at.
func (r *rig) waitUntil(at sim.Cycle) {
	r.q.Call(at, r.noop, 0)
	r.q.Run()
}

// randomTile draws one tile's segments from [0, span): ascending runs,
// runs that revisit earlier pages, or a gather of small scattered rows.
func randomTile(rng *rand.Rand, ps vm.PageSize, span uint64) []tensor.Segment {
	var segs []tensor.Segment
	page := int64(ps.Bytes())
	switch rng.Intn(3) {
	case 0: // ascending runs
		va := rng.Int63n(int64(span) / 4)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			bytes := 1 + rng.Int63n(3*page)
			if va+bytes > int64(span) {
				break
			}
			segs = append(segs, tensor.Segment{VA: vm.VirtAddr(va), Bytes: bytes})
			va += bytes + rng.Int63n(page)
		}
	case 1: // revisits: runs that return to pages already fetched
		base := rng.Int63n(int64(span) / 2)
		for n := 2 + rng.Intn(6); n > 0; n-- {
			va := base + rng.Int63n(2*page)
			segs = append(segs, tensor.Segment{VA: vm.VirtAddr(va), Bytes: 1 + rng.Int63n(page)})
		}
	default: // gather: small rows anywhere in the span
		for n := 1 + rng.Intn(200); n > 0; n-- {
			va := rng.Int63n(int64(span) - 4096)
			segs = append(segs, tensor.Segment{VA: vm.VirtAddr(va), Bytes: 64 << rng.Intn(6)})
		}
	}
	return segs
}

// randomSpec draws a machine: any MMU kind, and for Custom a small TLB
// and walker pool (few PTWs, small PRMBs that overflow into redundant
// walks, shallow FIFO queues that stall, any path cache), over a span
// with fault holes.
func randomSpec(rng *rand.Rand) rigSpec {
	ps := vm.Page4K
	if rng.Intn(4) == 0 {
		ps = vm.Page2M
	}
	kind := core.Kind(rng.Intn(4))
	spec := rigSpec{mmu: core.ConfigFor(kind, ps), span: uint64(ps.Bytes()) * 64, delay: -1}
	if kind == core.Custom {
		spec.mmu.TLB = tlb.Config{Entries: 4 << rng.Intn(4), Ways: 1 << rng.Intn(3), HitLatency: int64(rng.Intn(7))}
		spec.mmu.Walker = walker.Config{
			NumPTWs: 1 + rng.Intn(8), PRMBSlots: rng.Intn(4), UsePTS: rng.Intn(2) == 0,
			QueueDepth: rng.Intn(4), LevelLatency: int64(5 + rng.Intn(60)),
			Path: walker.PathKind(rng.Intn(4)),
		}
	}
	if rng.Intn(2) == 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			spec.holes = append(spec.holes, vm.VirtAddr(rng.Int63n(int64(spec.span))))
		}
		if rng.Intn(3) != 0 {
			spec.delay = sim.Cycle(rng.Intn(80))
		}
	}
	return spec
}

// diff runs one random machine on the three rigs: a few groups of tiles
// with foreign events and idle gaps. It returns the booked rig and the
// ticked one.
func diff(t *testing.T, rng *rand.Rand) (loop, ref *rig) {
	t.Helper()
	spec := randomSpec(rng)
	rigs := []*rig{newRig(spec, booked), newRig(spec, ticked), newRig(spec, chained)}
	for g := 1 + rng.Intn(3); g > 0; g-- {
		group := make([][]tensor.Segment, 1+rng.Intn(3))
		for i := range group {
			group[i] = randomTile(rng, spec.mmu.PageSize, spec.span)
		}
		var foreign []sim.Cycle
		for n := rng.Intn(4); n > 0; n-- {
			// Some land at the fetch's own cycle, ahead of its first issue.
			foreign = append(foreign, sim.Cycle(max(0, rng.Intn(700)-100)))
		}
		runAll(t, rigs, group, foreign, sim.Cycle(rng.Intn(50)))
	}
	compareRigs(t, spec.String()+" (ticked)", rigs[0], rigs[1])
	compareRigs(t, spec.String()+" (chained)", rigs[0], rigs[2])
	return rigs[0], rigs[1]
}

// runAll fetches one group on every rig, then idles them all until gap
// cycles after the latest one's clock, so the next group starts at one
// cycle everywhere (the ticked rig's last tick can run a cycle late).
func runAll(t *testing.T, rigs []*rig, group [][]tensor.Segment, foreign []sim.Cycle, gap sim.Cycle) {
	t.Helper()
	var start sim.Cycle
	for _, r := range rigs {
		r.fetch(t, group, foreign)
		start = max(start, r.q.Now())
	}
	for _, r := range rigs {
		r.waitUntil(start + gap)
	}
}

func compareRigs(t *testing.T, label string, loop, ref *rig) {
	t.Helper()
	if !reflect.DeepEqual(loop.tiles, ref.tiles) {
		t.Fatalf("%s: tile stats differ:\n loop  %+v\n chain %+v", label, loop.tiles, ref.tiles)
	}
	if loop.mem.Stats() != ref.mem.Stats() {
		t.Fatalf("%s: memory stats differ: loop %+v, chain %+v", label, loop.mem.Stats(), ref.mem.Stats())
	}
	if loop.mmu.Stats() != ref.mmu.Stats() {
		t.Fatalf("%s: MMU stats differ: loop %+v, chain %+v", label, loop.mmu.Stats(), ref.mmu.Stats())
	}
	if loop.mmu.TLBStats() != ref.mmu.TLBStats() || loop.mmu.WalkerStats() != ref.mmu.WalkerStats() ||
		loop.mmu.PathStats() != ref.mmu.PathStats() {
		t.Fatalf("%s: TLB, walker or path stats differ: loop %+v %+v %+v, chain %+v %+v %+v", label,
			loop.mmu.TLBStats(), loop.mmu.WalkerStats(), loop.mmu.PathStats(),
			ref.mmu.TLBStats(), ref.mmu.WalkerStats(), ref.mmu.PathStats())
	}
	if !reflect.DeepEqual(loop.seen, ref.seen) {
		t.Fatalf("%s: foreign events saw %v, chain %v", label, loop.seen, ref.seen)
	}
	if !reflect.DeepEqual(loop.faults, ref.faults) {
		t.Fatalf("%s: faults at %v, chain %v", label, loop.faults, ref.faults)
	}
	if !reflect.DeepEqual(loop.issues, ref.issues) {
		t.Fatalf("%s: VA traces differ (%d vs %d issues)", label, len(loop.issues), len(ref.issues))
	}
	if !reflect.DeepEqual(loop.eng.Timeline.Buckets(), ref.eng.Timeline.Buckets()) {
		t.Fatalf("%s: timelines differ", label)
	}
	if loop.eng.Transactions() != ref.eng.Transactions() || loop.eng.DistinctPages() != ref.eng.DistinctPages() ||
		loop.eng.PageDivergence() != ref.eng.PageDivergence() || loop.eng.StallCycles() != ref.eng.StallCycles() {
		t.Fatalf("%s: engine totals differ", label)
	}
	if loop.q.Now() != ref.q.Now() {
		t.Fatalf("%s: clocks differ: loop %d, chain %d", label, loop.q.Now(), ref.q.Now())
	}
}

// TestHorizonMatchesEventChain runs random machines of every MMU kind
// through the booking loop and through the event chain. Tile, memory,
// MMU, TLB, walker and path stats, fault cycles, the timeline and the VA
// trace must be identical. The trials must between them exercise what
// the loop has to get right: misses routed to walkers inline, stalls and
// unstalls, PRMB overflow into redundant walks, PRMB drains, faults, and
// a horizon that cuts the loop short.
func TestHorizonMatchesEventChain(t *testing.T) {
	var stalls, redundant, drains, faults, cuts, saved int64
	kinds := map[core.Kind]bool{}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		loop, ref := diff(t, rng)
		kinds[loop.spec.mmu.Kind] = true
		ws := loop.mmu.WalkerStats()
		stalls += loop.mmu.Stats().StallEnter
		redundant += ws.RedundantWalks
		drains += ws.PRMBReads
		faults += int64(len(loop.faults))
		saved += ref.q.Fired() - loop.q.Fired()
		if loop.q.Fired() > int64(len(loop.tiles)) {
			cuts++
		}
	}
	if len(kinds) != 4 || stalls == 0 || redundant == 0 || drains == 0 || faults == 0 || cuts == 0 || saved <= 0 {
		t.Fatalf("trials did not cover the loop: kinds %v, stalls %d, redundant walks %d, drains %d, faults %d, cut runs %d, events saved %d",
			kinds, stalls, redundant, drains, faults, cuts, saved)
	}
}

// FuzzHorizonMatchesChain is TestHorizonMatchesEventChain's comparison
// on machines and tiles drawn from the fuzzer's seed. The seed corpus
// runs with the package's tests.
func FuzzHorizonMatchesChain(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diff(t, rand.New(rand.NewSource(seed)))
	})
}

// TestHorizonFaultResumesOnChain puts an unmapped page mid-tile under an
// OnFault handler that maps it 50 cycles after each fault, for every MMU
// kind. The faults land where the chain raises them and the result
// equals the chain's. On the oracle, all four of the page's 1 KB
// transactions fault at their issue cycles, every issue keeps its
// start+i cycle, and the tile resumes on events after the faults.
func TestHorizonFaultResumesOnChain(t *testing.T) {
	hole := vm.VirtAddr(20 << 12)
	segs := [][]tensor.Segment{{{VA: 16 << 12, Bytes: 8 << 12}}} // pages 16..23, 1 KB bursts
	firstFault := sim.Cycle((hole - 16<<12) / DefaultBurst)
	for _, kind := range []core.Kind{core.Oracle, core.IOMMU, core.NeuMMU} {
		spec := rigSpec{mmu: core.ConfigFor(kind, vm.Page4K), span: 64 << 12, holes: []vm.VirtAddr{hole}, delay: 50}
		loop, ref := newRig(spec, booked), newRig(spec, chained)
		runAll(t, []*rig{loop, ref}, segs, nil, 0)
		compareRigs(t, spec.String(), loop, ref)
		if s := loop.mmu.Stats(); len(loop.faults) == 0 || s.Faults != int64(len(loop.faults)) || s.Retries != s.Faults {
			t.Fatalf("%s: MMU stats %+v after %d faults, want each retried", kind, s, len(loop.faults))
		}
		if kind != core.Oracle {
			continue
		}
		if len(loop.faults) != 4 || loop.faults[0] != firstFault || loop.faults[3] != firstFault+3 {
			t.Fatalf("oracle faults at %v, want four, from cycle %d", loop.faults, firstFault)
		}
		for i, is := range loop.issues {
			if is.at != sim.Cycle(i) {
				t.Fatalf("oracle issue %d at cycle %d, want %d", i, is.at, i)
			}
		}
		if loop.q.Fired() <= 2 {
			t.Fatalf("faulting oracle tile fired %d events; it never resumed on the chain", loop.q.Fired())
		}
	}
}
