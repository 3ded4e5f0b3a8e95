package walker

import (
	"errors"
	"fmt"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

// Config describes a walker pool. The zero value is not valid; use
// BaselineIOMMU or NeuMMU, or fill the fields explicitly for sweeps.
type Config struct {
	// NumPTWs is the number of parallel hardware page-table walkers
	// (baseline IOMMU: 8; NeuMMU nominal: 128).
	NumPTWs int
	// PRMBSlots is the number of mergeable request slots per PTW beyond
	// the walk-initiating request. Zero disables merging.
	PRMBSlots int
	// UsePTS enables the Pending Translation Scoreboard. Without it
	// (baseline IOMMU), concurrent misses to a page already being walked
	// start redundant walks.
	UsePTS bool
	// QueueDepth bounds the FIFO of requests waiting for a free PTW when
	// the scoreboard is disabled. Zero selects 2×NumPTWs.
	QueueDepth int
	// LevelLatency is the latency of one page-table level access
	// (Table I: 100 cycles).
	LevelLatency int64
	// Path selects the translation-path caching microarchitecture, and
	// PathEntries sizes it for the shared-cache kinds (TPC/UPTC). TPreg
	// is always one register per PTW.
	Path        PathKind
	PathEntries int
	// PageSize determines walk depth (4 levels for 4 KB, 3 for 2 MB).
	PageSize vm.PageSize
}

// BaselineIOMMU returns the paper's baseline IOMMU walker configuration:
// 8 PTWs, no scoreboard, no merging, no path caching.
func BaselineIOMMU(ps vm.PageSize) Config {
	return Config{
		NumPTWs:      8,
		PRMBSlots:    0,
		UsePTS:       false,
		LevelLatency: 100,
		Path:         PathNone,
		PageSize:     ps,
	}
}

// NeuMMU returns the paper's nominal NeuMMU walker configuration:
// 128 PTWs, 32 PRMB slots per PTW, PTS, and per-PTW TPreg.
func NeuMMU(ps vm.PageSize) Config {
	return Config{
		NumPTWs:      128,
		PRMBSlots:    32,
		UsePTS:       true,
		LevelLatency: 100,
		Path:         PathTPreg,
		PageSize:     ps,
	}
}

func (c Config) withDefaults() Config {
	if c.NumPTWs <= 0 {
		c.NumPTWs = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.NumPTWs
	}
	if c.LevelLatency <= 0 {
		c.LevelLatency = 100
	}
	if c.PageSize == 0 {
		c.PageSize = vm.Page4K
	}
	return c
}

// Request is one translation request entering the walker pool.
type Request struct {
	VA  vm.VirtAddr
	Seq uint64
	// Tag carries caller context (e.g. the DMA transaction index)
	// through the pool untouched.
	Tag int64
}

// Stats aggregates walker-pool activity. The counters feed both the
// performance figures and the energy model (walk memory accesses dominate
// translation energy).
type Stats struct {
	Requests        int64 // translation requests submitted
	WalksStarted    int64
	WalksCompleted  int64
	RedundantWalks  int64 // walks started while the same VPN was already in flight
	Merges          int64 // requests absorbed by a PRMB
	MergeFails      int64 // PTS hit but PRMB full (request blocked)
	Rejected        int64 // submissions refused for lack of capacity
	WalkMemAccesses int64 // page-table node reads issued to DRAM
	SkippedLevels   int64 // node reads avoided via path caching
	Faults          int64 // walks that found no mapping
	PTSLookups      int64
	PRMBWrites      int64 // merge insertions
	PRMBReads       int64 // drain reads
}

// ptw is one hardware walker.
type ptw struct {
	busy    bool // occupied: walking or draining its PRMB
	walking bool // the walk itself is still in flight (mergeable)
	vpn     uint64
	merged  []Request
	initial Request
	path    PathCache // per-PTW TPreg when Config.Path == PathTPreg

	// Drain state: finishWalk parks the walk's outcome and the merged
	// requests here, and the pool's drain handler delivers them one per
	// cycle. The two slices swap roles across walks so the steady state
	// re-uses their backing arrays instead of allocating per walk.
	// tickets is the first of the drains' reserved firing positions.
	draining []Request
	entry    vm.Entry
	fault    bool
	tickets  sim.Ticket
}

// Pool is a pool of parallel page-table walkers with optional PTS, PRMB,
// and translation-path caching. It is driven by a sim.Queue: Submit starts
// or merges a walk, and completion callbacks fire as events.
type Pool struct {
	cfg   Config
	pt    *vm.PageTable
	q     *sim.Queue
	ptws  []ptw
	free  []int // indices of idle walkers (LIFO keeps TPreg locality)
	queue sim.FIFO[Request]

	inflight walkIndex // VPN → walks in flight and the lowest walker on it

	shared PathCache // TPC/UPTC when configured

	stats Stats

	// Pooled event handlers (sim.Register): walk completion and PRMB
	// drain are the per-translation hot path, so they schedule by
	// (handler ID, scalar payload) instead of allocating closures. Drains
	// fire one per cycle in the order they are scheduled, so they ride a
	// lane (sim.RegisterLane).
	hFinish sim.HandlerID // arg: walker index
	hDrain  sim.HandlerID // arg: walker index<<32 | merged index

	// OnComplete fires once per request (initial and merged alike) when
	// its translation is available. OnFault fires instead when the walk
	// finds no mapping; the handler may map the page and must re-submit.
	// OnCapacity fires whenever pool capacity frees after a rejection.
	// OnWalkDone fires exactly once per successful walk (before the
	// per-request deliveries) and is where an MMU installs its TLB fill.
	OnComplete func(req Request, e vm.Entry, now sim.Cycle)
	OnFault    func(req Request, now sim.Cycle)
	OnCapacity func(now sim.Cycle)
	OnWalkDone func(va vm.VirtAddr, e vm.Entry, now sim.Cycle)

	rejectedSinceCapacity bool
}

// ErrNoHandler is panicked (wrapped) when a walk completes with no
// OnComplete handler installed; it indicates a mis-wired model.
var ErrNoHandler = errors.New("walker: no completion handler installed")

// NewPool builds a walker pool over the given page table, scheduling its
// timing on q.
func NewPool(cfg Config, pt *vm.PageTable, q *sim.Queue) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:      cfg,
		pt:       pt,
		q:        q,
		ptws:     make([]ptw, cfg.NumPTWs),
		inflight: newWalkIndex(cfg.NumPTWs),
	}
	p.hFinish = q.Register(sim.HandlerFunc(p.fireFinish))
	p.hDrain = q.RegisterLane(sim.HandlerFunc(p.fireDrain))
	for i := cfg.NumPTWs - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	switch cfg.Path {
	case PathTPreg:
		for i := range p.ptws {
			p.ptws[i].path = NewTPreg()
		}
	case PathTPC:
		n := cfg.PathEntries
		if n <= 0 {
			n = cfg.NumPTWs
		}
		p.shared = NewTPC(n)
	case PathUPTC:
		n := cfg.PathEntries
		if n <= 0 {
			n = 3 * cfg.NumPTWs
		}
		p.shared = NewUPTC(n)
	}
	return p
}

// Config returns the pool's configuration after defaulting.
func (p *Pool) Config() Config { return p.cfg }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats { return p.stats }

// PathStats aggregates translation-path cache statistics across all
// walkers (or the shared cache).
func (p *Pool) PathStats() PathStats {
	if p.shared != nil {
		return p.shared.Stats()
	}
	var agg PathStats
	for i := range p.ptws {
		if p.ptws[i].path == nil {
			continue
		}
		s := p.ptws[i].path.Stats()
		agg.Probes += s.Probes
		agg.L4Hits += s.L4Hits
		agg.L3Hits += s.L3Hits
		agg.L2Hits += s.L2Hits
		agg.Updates += s.Updates
	}
	return agg
}

// Busy reports the number of walks currently in flight.
func (p *Pool) Busy() int { return p.cfg.NumPTWs - len(p.free) }

// Pending reports the number of requests queued or merged but not yet
// completed (excluding walk-initiating requests).
func (p *Pool) Pending() int {
	n := p.queue.Len()
	for i := range p.ptws {
		n += len(p.ptws[i].merged)
	}
	return n
}

// Submit offers a translation request to the pool. It returns false when
// the pool has no capacity (all PTWs busy and, depending on configuration,
// the PRMB slots or the FIFO queue are full); the caller must hold the
// request and retry after OnCapacity fires.
func (p *Pool) Submit(req Request) bool {
	vpn := vm.PageNumber(req.VA, p.cfg.PageSize)
	if p.cfg.UsePTS {
		p.stats.PTSLookups++
		if i := p.inflight.find(vpn); i >= 0 {
			// PTS hit: an identical translation is in flight; merge into
			// the lowest-index walker walking it.
			if w := p.inflight.slots[i].lowest; len(p.ptws[w].merged) < p.cfg.PRMBSlots {
				p.stats.Requests++
				p.stats.Merges++
				p.stats.PRMBWrites++
				p.ptws[w].merged = append(p.ptws[w].merged, req)
				return true
			}
			// PRMB full: spill to a free walker as a redundant walk.
			// §IV-A blocks only "when all the PTWs as well as all
			// possible PRMB mergeable slots are full" — under-provisioned
			// PRMBs therefore burn walk bandwidth, the energy pathology
			// Fig 12b quantifies.
			p.stats.MergeFails++
			if len(p.free) > 0 {
				p.stats.Requests++
				p.startWalk(req, vpn)
				return true
			}
			p.stats.Rejected++
			p.rejectedSinceCapacity = true
			return false
		}
		if len(p.free) == 0 {
			p.stats.Rejected++
			p.rejectedSinceCapacity = true
			return false
		}
		p.stats.Requests++
		p.startWalk(req, vpn)
		return true
	}
	// Baseline IOMMU path: FIFO queue in front of the walkers, no
	// same-page awareness.
	if len(p.free) > 0 {
		p.stats.Requests++
		p.startWalk(req, vpn)
		return true
	}
	if p.queue.Len() < p.cfg.QueueDepth {
		p.stats.Requests++
		*p.queue.Push() = req
		return true
	}
	p.stats.Rejected++
	p.rejectedSinceCapacity = true
	return false
}

func (p *Pool) startWalk(req Request, vpn uint64) {
	w := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	pw := &p.ptws[w]
	pw.busy = true
	pw.walking = true
	pw.vpn = vpn
	pw.initial = req
	pw.merged = pw.merged[:0]

	if p.inflight.add(vpn, w) {
		p.stats.RedundantWalks++
	}
	p.stats.WalksStarted++

	// Determine how many upper levels the path cache lets us skip.
	ix := vm.Decompose(req.VA)
	skip := 0
	switch {
	case pw.path != nil:
		skip = pw.path.Probe(ix)
	case p.shared != nil:
		skip = p.shared.Probe(ix)
	}
	levels := p.cfg.PageSize.Levels()
	maxSkip := levels - 1 // the leaf access can never be skipped
	if skip > maxSkip {
		skip = maxSkip
	}
	accesses := levels - skip
	p.stats.WalkMemAccesses += int64(accesses)
	p.stats.SkippedLevels += int64(skip)

	latency := sim.Cycle(int64(accesses) * p.cfg.LevelLatency)
	p.q.CallAfter(latency, p.hFinish, int64(w))
}

func (p *Pool) fireFinish(now sim.Cycle, arg int64) { p.finishWalk(int(arg), now) }

// fireDrain delivers one merged request parked by finishWalk. The payload
// packs (walker index, merged index). Each drain but the last schedules
// the next one cycle later in its reserved position; the last releases
// the PTW.
func (p *Pool) fireDrain(now sim.Cycle, arg int64) {
	w, i := int(arg>>32), int(arg&0xFFFFFFFF)
	pw := &p.ptws[w]
	p.stats.PRMBReads++
	p.deliver(pw.draining[i], pw.entry, pw.fault, now)
	if i == len(pw.draining)-1 {
		p.release(w, now)
	} else {
		p.q.CallTicket(now+1, pw.tickets+sim.Ticket(i+1), p.hDrain, arg+1)
	}
}

func (p *Pool) finishWalk(w int, now sim.Cycle) {
	pw := &p.ptws[w]
	pw.walking = false
	vpn := pw.vpn
	p.stats.WalksCompleted++
	if i := p.inflight.find(vpn); p.inflight.remove(i) && int(p.inflight.slots[i].lowest) == w {
		// A redundant walk of vpn is still in flight: merges now target
		// the lowest-index walker among the ones still walking it.
		for j := range p.ptws {
			if p.ptws[j].walking && p.ptws[j].vpn == vpn {
				p.inflight.slots[i].lowest = int32(j)
				break
			}
		}
	}

	entry, _, err := p.pt.Walk(pw.initial.VA)
	fault := err != nil
	if fault {
		p.stats.Faults++
	} else {
		ix := vm.Decompose(pw.initial.VA)
		if pw.path != nil {
			pw.path.Update(ix)
		} else if p.shared != nil {
			p.shared.Update(ix)
		}
		if p.OnWalkDone != nil {
			p.OnWalkDone(pw.initial.VA, entry, now)
		}
	}

	p.deliver(pw.initial, entry, fault, now)

	// Swap the accumulation buffer into draining position; the previous
	// drain buffer (fully delivered by now) becomes the next walk's
	// accumulation buffer, so neither slice re-allocates in steady state.
	pw.draining, pw.merged = pw.merged, pw.draining[:0]
	if len(pw.draining) == 0 {
		p.release(w, now)
		return
	}
	pw.entry, pw.fault = entry, fault
	// Drain merged requests one per cycle (§IV-A), then free the walker.
	// The drains take the firing positions of one CallAfter(i+1) per
	// request made now, but only the first is scheduled; each drain
	// schedules the next (fireDrain).
	pw.tickets = p.q.ReserveN(len(pw.draining))
	p.q.CallTicket(now+1, pw.tickets, p.hDrain, int64(w)<<32)
}

func (p *Pool) deliver(req Request, e vm.Entry, fault bool, now sim.Cycle) {
	if fault {
		if p.OnFault == nil {
			panic(fmt.Errorf("%w: fault for VA %#x", ErrNoHandler, req.VA))
		}
		p.OnFault(req, now)
		return
	}
	if p.OnComplete == nil {
		panic(fmt.Errorf("%w: completion for VA %#x", ErrNoHandler, req.VA))
	}
	p.OnComplete(req, e, now)
}

func (p *Pool) release(w int, now sim.Cycle) {
	pw := &p.ptws[w]
	pw.busy = false
	p.free = append(p.free, w)
	// Pull the next queued request, if any (baseline IOMMU mode).
	if p.queue.Len() > 0 {
		next := p.queue.Pop()
		p.startWalk(next, vm.PageNumber(next.VA, p.cfg.PageSize))
	}
	if p.rejectedSinceCapacity {
		p.rejectedSinceCapacity = false
		if p.OnCapacity != nil {
			p.OnCapacity(now)
		}
	}
}
