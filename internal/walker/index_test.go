package walker

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

// refPool is the reference the Pool is checked against: the pool as it
// was before the walk index and the drain chain, with a Go map counting
// the walks in flight per VPN, a scan of every walker for the lowest one
// walking a VPN, and all of a walk's drains scheduled up front.
type refPool struct {
	cfg      Config
	pt       *vm.PageTable
	q        *sim.Queue
	ptws     []refPTW
	free     []int
	queue    []Request
	inflight map[uint64]int
	stats    Stats
	hFinish  sim.HandlerID
	hDrain   sim.HandlerID
	rejected bool
	log      *[]delivery
	capacity int
}

type refPTW struct {
	walking  bool
	vpn      uint64
	initial  Request
	merged   []Request
	draining []Request
	entry    vm.Entry
	fault    bool
	path     PathCache
}

// delivery is one request's outcome as a test observes it.
type delivery struct {
	seq   uint64
	at    sim.Cycle
	fault bool
}

func newRefPool(cfg Config, pt *vm.PageTable, q *sim.Queue, log *[]delivery) *refPool {
	cfg = cfg.withDefaults()
	p := &refPool{cfg: cfg, pt: pt, q: q, ptws: make([]refPTW, cfg.NumPTWs), inflight: map[uint64]int{}, log: log}
	p.hFinish = q.Register(sim.HandlerFunc(func(now sim.Cycle, arg int64) { p.finish(int(arg), now) }))
	p.hDrain = q.Register(sim.HandlerFunc(func(now sim.Cycle, arg int64) {
		w, i := int(arg>>32), int(arg&0xFFFFFFFF)
		pw := &p.ptws[w]
		p.stats.PRMBReads++
		p.deliver(pw.draining[i], pw.fault, now)
		if i == len(pw.draining)-1 {
			p.release(w, now)
		}
	}))
	for i := cfg.NumPTWs - 1; i >= 0; i-- {
		p.free = append(p.free, i)
		if cfg.Path == PathTPreg {
			p.ptws[i].path = NewTPreg()
		}
	}
	return p
}

// submit is Pool.Submit; it also returns the walker a merged request
// joined (-1 when it did not merge).
func (p *refPool) submit(req Request) (bool, int) {
	vpn := vm.PageNumber(req.VA, p.cfg.PageSize)
	if p.cfg.UsePTS {
		p.stats.PTSLookups++
		if p.inflight[vpn] > 0 {
			w := -1
			for i := range p.ptws {
				if p.ptws[i].walking && p.ptws[i].vpn == vpn {
					w = i
					break
				}
			}
			if len(p.ptws[w].merged) < p.cfg.PRMBSlots {
				p.stats.Requests++
				p.stats.Merges++
				p.stats.PRMBWrites++
				p.ptws[w].merged = append(p.ptws[w].merged, req)
				return true, w
			}
			p.stats.MergeFails++
		}
	}
	if len(p.free) > 0 {
		p.stats.Requests++
		p.start(req, vpn)
		return true, -1
	}
	if !p.cfg.UsePTS && len(p.queue) < p.cfg.QueueDepth {
		p.stats.Requests++
		p.queue = append(p.queue, req)
		return true, -1
	}
	p.stats.Rejected++
	p.rejected = true
	return false, -1
}

func (p *refPool) start(req Request, vpn uint64) {
	w := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	pw := &p.ptws[w]
	pw.walking, pw.vpn, pw.initial, pw.merged = true, vpn, req, nil
	if p.inflight[vpn] > 0 {
		p.stats.RedundantWalks++
	}
	p.inflight[vpn]++
	p.stats.WalksStarted++
	skip := 0
	if pw.path != nil {
		skip = pw.path.Probe(vm.Decompose(req.VA))
	}
	levels := p.cfg.PageSize.Levels()
	skip = min(skip, levels-1)
	p.stats.WalkMemAccesses += int64(levels - skip)
	p.stats.SkippedLevels += int64(skip)
	p.q.CallAfter(sim.Cycle(int64(levels-skip)*p.cfg.LevelLatency), p.hFinish, int64(w))
}

func (p *refPool) finish(w int, now sim.Cycle) {
	pw := &p.ptws[w]
	pw.walking = false
	p.stats.WalksCompleted++
	if p.inflight[pw.vpn]--; p.inflight[pw.vpn] == 0 {
		delete(p.inflight, pw.vpn)
	}
	entry, _, err := p.pt.Walk(pw.initial.VA)
	pw.entry, pw.fault = entry, err != nil
	if pw.fault {
		p.stats.Faults++
	} else if pw.path != nil {
		pw.path.Update(vm.Decompose(pw.initial.VA))
	}
	p.deliver(pw.initial, pw.fault, now)
	pw.draining = pw.merged
	if len(pw.draining) == 0 {
		p.release(w, now)
		return
	}
	for i := range pw.draining {
		p.q.CallAfter(sim.Cycle(i+1), p.hDrain, int64(w)<<32|int64(i))
	}
}

func (p *refPool) deliver(req Request, fault bool, now sim.Cycle) {
	*p.log = append(*p.log, delivery{req.Seq, now, fault})
}

func (p *refPool) release(w int, now sim.Cycle) {
	p.free = append(p.free, w)
	if len(p.queue) > 0 {
		next := p.queue[0]
		p.queue = p.queue[1:]
		p.start(next, vm.PageNumber(next.VA, p.cfg.PageSize))
	}
	if p.rejected {
		p.rejected = false
		p.capacity++
	}
}

// The pool, with its walk index and drain chain, matches the reference
// request by request over random submit and finish sequences: the same
// accept decisions, the same merge target, the same delivery of every
// request at the same cycle, the same Stats and the same OnCapacity
// calls. One page in sixteen is unmapped, so faults take the same paths.
func TestPoolMatchesReference(t *testing.T) {
	for _, ptws := range []int{1, 8, 128, 1024} {
		for _, prmb := range []int{0, 1, 2, 32} {
			for _, pts := range []bool{true, false} {
				t.Run(fmt.Sprintf("ptw%d/prmb%d/pts%v", ptws, prmb, pts), func(t *testing.T) {
					t.Parallel()
					comparePools(t, Config{
						NumPTWs: ptws, PRMBSlots: prmb, UsePTS: pts, LevelLatency: 100,
						Path: PathTPreg, PageSize: vm.Page4K,
					}, int64(ptws*100+prmb))
				})
			}
		}
	}
}

func comparePools(t *testing.T, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pt := vm.NewPageTable()
	pages := max(16, cfg.NumPTWs)
	page := func(i int) vm.VirtAddr { return rigBase + vm.VirtAddr(i)*vm.VirtAddr(vm.Page4K.Bytes()) }
	for i := 0; i < pages; i++ {
		if i%16 != 5 {
			pt.Map(page(i), vm.PhysAddr(i)<<12, vm.Page4K, 0)
		}
	}
	q, rq := &sim.Queue{}, &sim.Queue{}
	var got, want []delivery
	p := NewPool(cfg, pt, q)
	p.OnComplete = func(req Request, _ vm.Entry, now sim.Cycle) { got = append(got, delivery{req.Seq, now, false}) }
	p.OnFault = func(req Request, now sim.Cycle) { got = append(got, delivery{req.Seq, now, true}) }
	capacity := 0
	p.OnCapacity = func(sim.Cycle) { capacity++ }
	ref := newRefPool(cfg, pt, rq, &want)

	var seq uint64
	var clock sim.Cycle
	for round := 0; round < min(1500, 150000/cfg.NumPTWs); round++ {
		// A burst of requests clustered on a few pages, so walks of one
		// page overlap and PRMBs fill.
		hot := rng.Intn(pages)
		for n := 1 + rng.Intn(3*cfg.NumPTWs/2+4); n > 0; n-- {
			i := hot + rng.Intn(4)
			if rng.Intn(4) == 0 {
				i = rng.Intn(pages)
			}
			seq++
			req := Request{VA: page(i%pages) + vm.VirtAddr(rng.Intn(64)*64), Seq: seq}
			merges := p.Stats().Merges
			ok := p.Submit(req)
			wantOK, target := ref.submit(req)
			if ok != wantOK {
				t.Fatalf("request %d: Submit = %v, reference %v", seq, ok, wantOK)
			}
			// A merge must join the reference's walker; any other outcome
			// must not merge.
			if merged := p.Stats().Merges > merges; merged != (target >= 0) ||
				merged && p.ptws[target].merged[len(p.ptws[target].merged)-1].Seq != seq {
				t.Fatalf("request %d: pool merged = %v; reference merged into walker %d (-1: none)", seq, merged, target)
			}
		}
		clock += sim.Cycle(rng.Intn(150))
		q.RunUntil(clock)
		rq.RunUntil(clock)
		if !slices.Equal(got, want) || p.Stats() != ref.stats || capacity != ref.capacity {
			t.Fatalf("round %d: pool and reference diverged:\n stats %+v\n ref   %+v\n %d/%d deliveries, %d/%d capacity calls",
				round, p.Stats(), ref.stats, len(got), len(want), capacity, ref.capacity)
		}
	}
	q.Run()
	rq.Run()
	if !slices.Equal(got, want) || p.Stats() != ref.stats || q.Now() != rq.Now() {
		t.Fatalf("drained: pool and reference diverged:\n stats %+v\n ref   %+v", p.Stats(), ref.stats)
	}
	// Small PRMBs overflow into redundant walks of a page already being
	// walked, the case where a merge target can finish before the other
	// walkers of its page.
	s := p.Stats()
	if s.Faults == 0 || s.Rejected == 0 || (cfg.UsePTS && cfg.PRMBSlots > 0 && s.Merges == 0) ||
		(cfg.UsePTS && cfg.PRMBSlots <= 2 && cfg.NumPTWs > 1 && s.RedundantWalks == 0) {
		t.Fatalf("schedule missed a path: %+v", s)
	}
}

// FuzzWalkIndex drives the index the way the pool does, one walker per
// input byte: an idle walker starts a walk of a VPN drawn from a small
// set (so VPNs repeat and their home slots collide), a walking one
// finishes. After every step each VPN's entry must match a map of the
// walkers walking it: present exactly when one is, with their count and
// the lowest of them.
func FuzzWalkIndex(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 0, 9, 17, 1, 2, 250, 3, 3, 18})
	f.Add(uint8(15), []byte("the PTS merges misses to a page already being walked"))
	// Long random runs on small tables, so probe runs collide, wrap and
	// shift back on delete without a fuzzing session.
	rng := rand.New(rand.NewSource(19))
	for walkers := uint8(1); walkers <= 16; walkers *= 2 {
		ops := make([]byte, 4096)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(walkers, ops)
	}
	f.Fuzz(func(t *testing.T, walkers uint8, ops []byte) {
		n := 1 + int(walkers)%32
		x := newWalkIndex(n)
		walking := make([]int, n) // VPN+1 of each walker's walk, 0 when idle
		for _, b := range ops {
			w := int(b) % n
			if walking[w] == 0 {
				vpn := uint64(b/8) * 0x10001
				if x.add(vpn, w) != othersWalking(walking, vpn) {
					t.Fatalf("add(%#x, %d) disagrees on a walk already in flight", vpn, w)
				}
				walking[w] = int(vpn) + 1
			} else {
				vpn := uint64(walking[w] - 1)
				walking[w] = 0
				i := x.find(vpn)
				if i < 0 {
					t.Fatalf("walk of %#x on walker %d not found", vpn, w)
				}
				if x.remove(i) && int(x.slots[i].lowest) == w {
					x.slots[i].lowest = int32(slices.Index(walking, int(vpn)+1))
				}
			}
			live := 0
			for vpn := uint64(0); vpn < 32; vpn++ {
				var count, lowest int32 = 0, -1
				for v := range walking {
					if walking[v] == int(vpn*0x10001)+1 {
						if count++; lowest < 0 {
							lowest = int32(v)
						}
					}
				}
				i := x.find(vpn * 0x10001)
				switch {
				case count == 0 && i >= 0:
					t.Fatalf("VPN %#x found with no walk in flight", vpn*0x10001)
				case count > 0 && (i < 0 || x.slots[i].walks != count || x.slots[i].lowest != lowest):
					t.Fatalf("VPN %#x: slot %d, want %d walks, lowest %d", vpn*0x10001, i, count, lowest)
				}
				if count > 0 {
					live++
				}
			}
			for _, s := range x.slots {
				if s.walks != 0 {
					live--
				}
			}
			if live != 0 {
				t.Fatalf("table holds %d entries more than the VPNs in flight", -live)
			}
		}
	})
}

// othersWalking reports whether a walker is walking vpn.
func othersWalking(walking []int, vpn uint64) bool {
	return slices.Contains(walking, int(vpn)+1)
}

// A walk with N merged requests drains them one per cycle after the walk
// lands, with at most one drain event pending at any time.
func TestDrainKeepsOneEventPending(t *testing.T) {
	r := newRig(t, Config{NumPTWs: 1, PRMBSlots: 32, UsePTS: true, LevelLatency: 100,
		PageSize: vm.Page4K}, 1)
	const merged = 20
	for i := 0; i <= merged; i++ {
		if !r.pool.Submit(Request{VA: r.page(0) + vm.VirtAddr(8*i), Seq: uint64(i)}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	for r.q.Step() {
		if len(r.done) > 0 && r.q.Len() > 1 {
			t.Fatalf("%d events pending while draining, want at most 1", r.q.Len())
		}
	}
	if len(r.done) != merged+1 || r.q.Fired() != merged+1 {
		t.Fatalf("%d deliveries from %d events, want %d from %d", len(r.done), r.q.Fired(), merged+1, merged+1)
	}
	for i, d := range r.done {
		if d.req.Seq != uint64(i) || d.at != 400+sim.Cycle(i) {
			t.Fatalf("delivery %d: request %d at %d, want request %d at %d", i, d.req.Seq, d.at, i, 400+i)
		}
	}
}

// Once warm, submitting, walking, merging, queueing and draining allocate
// nothing: the walk index, the PRMB buffers and the drain lane are sized
// by the first pass.
func TestPoolAllocFree(t *testing.T) {
	for _, cfg := range []Config{
		NeuMMU(vm.Page4K),
		{NumPTWs: 2, UsePTS: false, LevelLatency: 100, PageSize: vm.Page4K},
		{NumPTWs: 2, PRMBSlots: 2, UsePTS: true, LevelLatency: 100, PageSize: vm.Page4K},
	} {
		r := newRig(t, cfg, 16)
		r.pool.OnComplete = func(Request, vm.Entry, sim.Cycle) {}
		pass := func() {
			for i := 0; i < 64; i++ {
				r.pool.Submit(Request{VA: r.page(i % 8), Seq: uint64(i)})
			}
			r.q.Run()
		}
		pass()
		if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
			t.Errorf("%d PTWs × %d PRMB slots: %v allocations per pass, want 0", cfg.NumPTWs, cfg.PRMBSlots, allocs)
		}
		if s := r.pool.Stats(); s.WalksCompleted == 0 || (cfg.UsePTS && (s.Merges == 0 || s.MergeFails == 0 && cfg.PRMBSlots < 8)) {
			t.Fatalf("passes missed a path: %+v", s)
		}
	}
}
