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
	"neummu/internal/vm"
)

// farFuture is later than any tile in these tests. An event pending
// there keeps the queue non-empty at every fetch, which forces an oracle
// tile onto the event chain without perturbing it.
const farFuture = sim.Cycle(1) << 40

// issue is one observed translation issue.
type issue struct {
	va vm.VirtAddr
	at sim.Cycle
}

// oracleRig is an oracle engine with Timeline, VATrace and Watch
// attached, over a page table mapping [0, span) at page size ps except
// for the page holding hole (when hole is non-zero).
type oracleRig struct {
	q      *sim.Queue
	pt     *vm.PageTable
	mmu    *core.MMU
	mem    *memsys.Memory
	eng    *Engine
	issues []issue
	tiles  []TileStats
}

func newOracleRig(ps vm.PageSize, span uint64, hole vm.VirtAddr, chain bool) *oracleRig {
	r := &oracleRig{q: &sim.Queue{}, pt: vm.NewPageTable()}
	fa := vm.NewFrameAllocator(2*span, ps, 0)
	for va := vm.VirtAddr(0); va < vm.VirtAddr(span); va += vm.VirtAddr(ps.Bytes()) {
		frame := fa.Alloc()
		if hole == 0 || vm.PageBase(hole, ps) != va {
			r.pt.Map(va, frame, ps, 0)
		}
	}
	r.mmu = core.New(core.ConfigFor(core.Oracle, ps), r.pt, r.q)
	r.mem = memsys.New(memsys.Baseline(), r.q)
	r.eng = New(r.q, r.mmu, r.mem)
	r.eng.Timeline = stats.NewTimeSeries(64)
	r.eng.VATrace = func(va vm.VirtAddr, now sim.Cycle) { r.issues = append(r.issues, issue{va, now}) }
	r.eng.Watch = &vm.Region{Name: "watch", Base: vm.VirtAddr(span / 4), Size: span / 2}
	if chain {
		r.q.Call(farFuture, r.q.Register(sim.HandlerFunc(func(sim.Cycle, int64) {})), 0)
	}
	return r
}

// fetch runs one tile to its end, leaving the far-future event (if any)
// pending.
func (r *oracleRig) fetch(t *testing.T, segs []tensor.Segment) {
	t.Helper()
	done := false
	r.eng.FetchSegments(segs, func(ts TileStats) { r.tiles, done = append(r.tiles, ts), true })
	r.q.RunUntil(farFuture - 1)
	if !done {
		t.Fatal("tile never completed")
	}
}

// randomTile draws one tile's segments from [0, span): ascending runs,
// runs that revisit earlier pages, or a gather of small scattered rows.
func randomTile(rng *rand.Rand, shape int, ps vm.PageSize, span uint64) []tensor.Segment {
	var segs []tensor.Segment
	page := int64(ps.Bytes())
	switch shape {
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

// TestInstantOracleMatchesEventChain runs random tiles through the
// event-free oracle loop and, on a twin rig, through the issue chain
// (forced by a far-future event pending at every fetch). Tile stats,
// memory stats, MMU stats, engine totals, the timeline and the VA trace
// must be identical, while the loop fires exactly one event per tile.
func TestInstantOracleMatchesEventChain(t *testing.T) {
	for _, ps := range []vm.PageSize{vm.Page4K, vm.Page2M} {
		span := uint64(ps.Bytes()) * 32
		rng := rand.New(rand.NewSource(int64(ps)))
		for trial := 0; trial < 60; trial++ {
			fast := newOracleRig(ps, span, 0, false)
			slow := newOracleRig(ps, span, 0, true)
			tiles := 0
			for n := 1 + rng.Intn(4); n > 0; n-- {
				segs := randomTile(rng, rng.Intn(3), ps, span)
				if len(segs) > 0 {
					tiles++
				}
				fast.fetch(t, segs)
				slow.fetch(t, segs)
			}
			label := fmt.Sprintf("%s trial %d", ps, trial)
			compareRigs(t, label, fast, slow)
			if fast.q.Fired() != int64(tiles) {
				t.Fatalf("%s: event-free loop fired %d events for %d tiles, want one per tile",
					label, fast.q.Fired(), tiles)
			}
			if slow.q.Fired() <= int64(tiles) && len(slow.issues) > 0 {
				t.Fatalf("%s: chain rig fired only %d events; the chain was not forced", label, slow.q.Fired())
			}
		}
	}
}

func compareRigs(t *testing.T, label string, fast, slow *oracleRig) {
	t.Helper()
	if !reflect.DeepEqual(fast.tiles, slow.tiles) {
		t.Fatalf("%s: tile stats differ:\n loop  %+v\n chain %+v", label, fast.tiles, slow.tiles)
	}
	if fast.mem.Stats() != slow.mem.Stats() {
		t.Fatalf("%s: memory stats differ: loop %+v, chain %+v", label, fast.mem.Stats(), slow.mem.Stats())
	}
	if fast.mmu.Stats() != slow.mmu.Stats() {
		t.Fatalf("%s: MMU stats differ: loop %+v, chain %+v", label, fast.mmu.Stats(), slow.mmu.Stats())
	}
	if !reflect.DeepEqual(fast.issues, slow.issues) {
		t.Fatalf("%s: VA traces differ (%d vs %d issues)", label, len(fast.issues), len(slow.issues))
	}
	if !reflect.DeepEqual(fast.eng.Timeline.Buckets(), slow.eng.Timeline.Buckets()) {
		t.Fatalf("%s: timelines differ", label)
	}
	if fast.eng.Transactions() != slow.eng.Transactions() || fast.eng.DistinctPages() != slow.eng.DistinctPages() ||
		fast.eng.PageDivergence() != slow.eng.PageDivergence() || fast.eng.StallCycles() != slow.eng.StallCycles() {
		t.Fatalf("%s: engine totals differ", label)
	}
}

// TestInstantOracleFaultResumesOnChain puts an unmapped page mid-tile
// under an OnFault handler that maps it 50 cycles after each fault, so
// all four of its 1 KB transactions fault. The loop must hand the tile to
// the event chain at the first faulting transaction's cycle: the handler
// sees the faults at their issue cycles, every issue keeps its start+i
// cycle, and the result equals the all-chain run's.
func TestInstantOracleFaultResumesOnChain(t *testing.T) {
	const span = 64 << 12
	hole := vm.VirtAddr(20 << 12)
	segs := []tensor.Segment{{VA: 16 << 12, Bytes: 8 << 12}} // pages 16..23, 1 KB bursts
	firstFault := sim.Cycle((hole - 16<<12) / DefaultBurst)

	run := func(chain bool) (*oracleRig, []sim.Cycle) {
		r := newOracleRig(vm.Page4K, span, hole, chain)
		var faults []sim.Cycle
		var resolves []func()
		hResolve := r.q.Register(sim.HandlerFunc(func(_ sim.Cycle, i int64) {
			if _, _, err := r.pt.Walk(hole); err != nil {
				r.pt.Map(hole, 0x7000_0000, vm.Page4K, 0)
			}
			resolves[i]()
		}))
		r.mmu.OnFault = func(_ vm.VirtAddr, now sim.Cycle, resolve func()) {
			faults = append(faults, now)
			resolves = append(resolves, resolve)
			r.q.Call(now+50, hResolve, int64(len(resolves)-1))
		}
		r.fetch(t, segs)
		return r, faults
	}
	fast, faults := run(false)
	slow, slowFaults := run(true)
	compareRigs(t, "fault", fast, slow)
	if !reflect.DeepEqual(faults, slowFaults) || len(faults) != 4 || faults[0] != firstFault || faults[3] != firstFault+3 {
		t.Fatalf("faults at %v (chain %v), want four, from cycle %d", faults, slowFaults, firstFault)
	}
	for i, is := range fast.issues {
		if is.at != sim.Cycle(i) {
			t.Fatalf("issue %d at cycle %d, want %d", i, is.at, i)
		}
	}
	if s := fast.mmu.Stats(); s.Faults != int64(len(faults)) || s.Retries != s.Faults {
		t.Fatalf("MMU stats %+v, want %d faults, each retried", s, len(faults))
	}
	if fast.q.Fired() <= 1 {
		t.Fatalf("faulting tile fired %d events; it never resumed on the chain", fast.q.Fired())
	}
}
