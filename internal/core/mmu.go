// Package core implements the paper's primary contribution: the NPU memory
// management unit. It composes the TLB (internal/tlb) and the page-table
// walker machinery (internal/walker — PTS, PRMB, parallel PTWs, TPreg)
// into a translation engine with three canonical configurations:
//
//   - Oracle: every translation resolves instantly with zero latency. All
//     performance results in the paper (and in EXPERIMENTS.md) are
//     normalized to this design point.
//   - IOMMU: the baseline GPU-centric design — a 2048-entry IOTLB with
//     5-cycle hits backed by 8 page-table walkers, no scoreboard, no
//     request merging, no path caching.
//   - NeuMMU: the paper's throughput-centric proposal — the same TLB
//     backed by 128 walkers, each with a 32-slot pending request merging
//     buffer, a pending-translation scoreboard, and a per-walker
//     translation path register.
//
// The engine is event-driven (internal/sim) and applies back-pressure the
// way the hardware does: when every walker is busy and every PRMB slot is
// full, the requester (the DMA unit) stalls until capacity frees (§IV-A).
//
// Every TLB probe resolves a fixed hit latency after its lookup, hit or
// miss, so probes resolve in the order they were made. The MMU parks each
// probe's outcome in a FIFO ring, with the cycle and ticket its event
// fires at, and schedules one payload-free event on a queue lane
// (sim.Queue.RegisterLane); the event takes the ring's oldest probe. No
// probe needs a pooled slot or a heap entry.
//
// A requester that fires the probes itself (the DMA engine's booking
// loop, see internal/dma) holds them: HoldProbes holds their lane
// (sim.Queue.Hold) and stops lookups from scheduling new events,
// NextProbe and ResolveProbe fire the oldest probe at its booked cycle,
// dropping its event, and ReleaseProbes schedules the probes booked
// during the hold that are still pending, under their tickets. A held
// probe resolves exactly as its event would have.
package core

import (
	"fmt"

	"neummu/internal/sim"
	"neummu/internal/stats"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// Kind names a canonical MMU configuration.
type Kind int

const (
	// Oracle resolves every translation instantly (normalization target).
	Oracle Kind = iota
	// IOMMU is the baseline GPU-centric IOMMU (Table I).
	IOMMU
	// NeuMMU is the paper's proposal (§IV).
	NeuMMU
	// Custom uses exactly the Config's TLB/Walker fields (sweeps).
	Custom
)

func (k Kind) String() string {
	switch k {
	case Oracle:
		return "oracle"
	case IOMMU:
		return "iommu"
	case NeuMMU:
		return "neummu"
	default:
		return "custom"
	}
}

// Config describes an MMU instance.
type Config struct {
	Kind     Kind
	PageSize vm.PageSize
	// TLB and Walker are consulted for Custom (always) and to override
	// presets when non-zero (sweeps tweak one knob at a time).
	TLB    tlb.Config
	Walker walker.Config
}

// ConfigFor returns the canonical configuration of kind k at the given
// page size. The oracle has no TLB or walkers; Custom starts from the
// NeuMMU preset.
func ConfigFor(k Kind, ps vm.PageSize) Config {
	if k == Oracle {
		return Config{Kind: Oracle, PageSize: ps}
	}
	cfg := Config{Kind: k, PageSize: ps, TLB: tlb.Baseline(ps), Walker: walker.NeuMMU(ps)}
	if k == IOMMU {
		cfg.Walker = walker.BaselineIOMMU(ps)
	}
	return cfg
}

// Stats aggregates MMU-level activity.
type Stats struct {
	Issued     int64 // translation requests accepted from the requester
	OracleHits int64 // requests satisfied instantly (oracle mode)
	TLBHits    int64
	TLBMisses  int64
	Faults     int64 // page faults surfaced to the fault handler
	Retries    int64 // re-submissions after fault resolution
	StallEnter int64 // times the engine asserted back-pressure
	// Latency distributes per-request translation latency in cycles.
	Latency stats.Dist
}

// FaultHandler resolves a page fault: it receives the faulting address and
// a resolve callback; the handler performs whatever timing it models
// (migration, host interrupt, ...) and then calls resolve, after which the
// MMU retries the translation. The page must be mapped by then.
type FaultHandler func(va vm.VirtAddr, now sim.Cycle, resolve func())

// TranslateFn receives a completed translation along with the caller's
// tag, so one persistent callback can serve every in-flight request (the
// DMA engine tags each transaction with its index instead of capturing it
// in a fresh closure).
type TranslateFn func(e vm.Entry, tag int64, now sim.Cycle)

type pending struct {
	va     vm.VirtAddr
	tag    int64
	issued sim.Cycle
	done   TranslateFn
}

// probe parks a TLB probe's outcome between the lookup and its
// HitLatency-delayed delivery: a hit's frame and device, or a miss to
// route to the walkers. at and t are the cycle and ticket its event
// fires at.
type probe struct {
	p     pending
	frame vm.PhysAddr
	dev   int
	hit   bool
	at    sim.Cycle
	t     sim.Ticket
}

// MMU is the translation engine.
type MMU struct {
	cfg  Config
	q    *sim.Queue
	pt   *vm.PageTable
	tlb  *tlb.TLB
	pool *walker.Pool

	stats   Stats
	blocked sim.FIFO[pending]
	stalled bool
	// flight holds the pending request behind each in-flight walker
	// submission; the slot index travels as walker.Request.Seq, so
	// completion matching is an array read instead of a map lookup.
	flight     []pending
	freeFlight []int32

	// probes holds the outcomes of TLB probes whose hProbe event has not
	// fired yet. Every probe is scheduled HitLatency after Now, a
	// constant, so probes fire in the order they were scheduled and the
	// event needs no payload: it takes the oldest probe. While held is
	// set, the holder fires the probes: the oldest onLane of them still
	// have events on the held lane, and the ones booked since have none.
	hProbe sim.HandlerID
	probes sim.FIFO[probe]
	held   bool
	onLane int

	// OnUnblocked fires when back-pressure releases; the DMA engine
	// resumes issuing. OnFault, when set, receives page faults; when nil
	// a fault panics (dense workloads must never fault).
	OnUnblocked func(now sim.Cycle)
	OnFault     FaultHandler
}

// New builds an MMU over the page table pt, scheduling on q.
func New(cfg Config, pt *vm.PageTable, q *sim.Queue) *MMU {
	if cfg.PageSize == 0 {
		cfg.PageSize = vm.Page4K
	}
	m := &MMU{cfg: cfg, q: q, pt: pt}
	if cfg.Kind == Oracle {
		return m
	}
	m.hProbe = q.RegisterLane(sim.HandlerFunc(m.fireProbe))
	tcfg := cfg.TLB
	if tcfg.Entries == 0 {
		tcfg = tlb.Baseline(cfg.PageSize)
	}
	tcfg.PageSize = cfg.PageSize
	m.tlb = tlb.New(tcfg)

	wcfg := cfg.Walker
	if wcfg.NumPTWs == 0 {
		wcfg = walker.NeuMMU(cfg.PageSize)
	}
	wcfg.PageSize = cfg.PageSize
	m.pool = walker.NewPool(wcfg, pt, q)
	m.pool.OnWalkDone = func(va vm.VirtAddr, e vm.Entry, _ sim.Cycle) {
		frame := e.Frame
		if e.Size > m.cfg.PageSize {
			// A larger mapping (e.g. a promoted 2 MB page under a 4 KB
			// TLB) caches at TLB granularity: keep this small page's
			// frame so hits translate correctly.
			frame += vm.PhysAddr(vm.PageBase(va, m.cfg.PageSize) - vm.PageBase(va, e.Size))
		}
		m.tlb.Fill(va, frame, e.Device)
	}
	m.pool.OnComplete = m.walkComplete
	m.pool.OnFault = m.walkFault
	m.pool.OnCapacity = m.capacityFreed
	return m
}

// Config returns the MMU's configuration.
func (m *MMU) Config() Config { return m.cfg }

// Stats returns a snapshot of MMU counters.
func (m *MMU) Stats() Stats { return m.stats }

// TLBStats returns the TLB's counters (zero value in oracle mode).
func (m *MMU) TLBStats() tlb.Stats {
	if m.tlb == nil {
		return tlb.Stats{}
	}
	return m.tlb.Stats()
}

// WalkerStats returns the walker pool's counters (zero value in oracle
// mode).
func (m *MMU) WalkerStats() walker.Stats {
	if m.pool == nil {
		return walker.Stats{}
	}
	return m.pool.Stats()
}

// PathStats returns translation-path cache statistics (zero value in
// oracle mode).
func (m *MMU) PathStats() walker.PathStats {
	if m.pool == nil {
		return walker.PathStats{}
	}
	return m.pool.PathStats()
}

// InvalidateTLB drops the cached translation for va's page (page
// migration support).
func (m *MMU) InvalidateTLB(va vm.VirtAddr) {
	if m.tlb != nil {
		m.tlb.Invalidate(va)
	}
}

// Stalled reports whether the MMU is applying back-pressure: the requester
// must not issue new translations until OnUnblocked fires.
func (m *MMU) Stalled() bool { return m.stalled }

// TranslateTag requests the VA→PA translation for va; done fires with
// the caller's tag when the physical entry is available, so a single
// long-lived callback serves any number of concurrent requests. The
// entry's frame is the page base — the caller applies the page offset.
// TranslateTag must not be called while Stalled() is true.
func (m *MMU) TranslateTag(va vm.VirtAddr, tag int64, done TranslateFn) {
	if m.stalled {
		panic("core: TranslateTag called while stalled")
	}
	now := m.q.Now()
	m.stats.Issued++
	if m.cfg.Kind == Oracle {
		// An oracle request is resolved at once, with zero latency.
		m.stats.OracleHits++
		m.stats.Latency.Add(0)
		e, _, err := m.pt.Walk(va)
		if err != nil {
			m.fault(pending{va: va, tag: tag, issued: now, done: done}, now)
			return
		}
		done(e, tag, now)
		return
	}
	m.lookup(pending{va: va, tag: tag, issued: now, done: done})
}

// lookup probes the TLB. A hit is delivered, and a miss is routed to the
// walker pool, after the probe latency. The probe's ticket is taken here,
// where its event is scheduled, also when the probes are held.
func (m *MMU) lookup(p pending) {
	frame, dev, hit := m.tlb.Lookup(p.va)
	if hit {
		m.stats.TLBHits++
	} else {
		m.stats.TLBMisses++
	}
	at, t := m.q.Now()+sim.Cycle(m.tlb.HitLatency()), m.q.Reserve()
	pr := m.probes.Push()
	pr.p, pr.frame, pr.dev, pr.hit, pr.at, pr.t = p, frame, dev, hit, at, t
	if !m.held {
		m.q.CallTicket(at, t, m.hProbe, 0)
	}
}

// HoldProbes holds the probes' lane, so the caller can fire the probes
// itself with NextProbe and ResolveProbe, and makes lookups book new
// probes without scheduling them. It reports false, and holds nothing,
// when some probe event is not on its lane. An oracle has no probes to
// hold.
func (m *MMU) HoldProbes() bool {
	if m.tlb == nil {
		return true
	}
	if !m.q.Hold(m.hProbe, m.probes.Len()) {
		return false
	}
	m.held, m.onLane = true, m.probes.Len()
	return true
}

// NextProbe returns the cycle and ticket of the oldest held probe, and
// false when none is pending.
func (m *MMU) NextProbe() (sim.Cycle, sim.Ticket, bool) {
	if m.probes.Len() == 0 {
		return 0, 0, false
	}
	pr := m.probes.At(0)
	return pr.at, pr.t, true
}

// ResolveProbe resolves the oldest held probe as its event would, and
// drops the event: the caller has advanced the queue's clock to the
// probe's cycle.
func (m *MMU) ResolveProbe() {
	if m.onLane > 0 {
		m.q.Drop()
		m.onLane--
	}
	m.resolveProbe(m.q.Now())
}

// ReleaseProbes ends a hold: the probes booked during it that are still
// pending get their events, at their cycles and under their tickets.
func (m *MMU) ReleaseProbes() {
	if !m.held {
		return
	}
	for i := m.onLane; i < m.probes.Len(); i++ {
		pr := m.probes.At(i)
		m.q.CallTicket(pr.at, pr.t, m.hProbe, 0)
	}
	m.q.Release()
	m.held, m.onLane = false, 0
}

func (m *MMU) fireProbe(now sim.Cycle, _ int64) {
	if m.probes.Len() == 0 {
		panic("core: TLB probe event fired with no probe pending (mis-wired model)")
	}
	m.resolveProbe(now)
}

func (m *MMU) resolveProbe(now sim.Cycle) {
	pr := m.probes.Pop()
	if !pr.hit {
		m.submit(pr.p)
		return
	}
	m.stats.Latency.Add(float64(now - pr.p.issued))
	pr.p.done(vm.Entry{Frame: pr.frame, Size: m.cfg.PageSize, Device: pr.dev}, pr.p.tag, now)
}

// allocFlight parks p in a free slot and returns the slot index used as
// the walker request's Seq. Freed slots carry a tombstone that catches a
// duplicate walker delivery (see releaseFlight).
func (m *MMU) allocFlight(p pending) uint64 {
	var slot int32
	if n := len(m.freeFlight); n > 0 {
		slot = m.freeFlight[n-1]
		m.freeFlight = m.freeFlight[:n-1]
		m.flight[slot] = p
	} else {
		slot = int32(len(m.flight))
		m.flight = append(m.flight, p)
	}
	return uint64(slot)
}

// releaseFlight frees a slot and returns its pending. A freed slot keeps
// issued = -1 as a tombstone so a duplicate delivery from the walker pool
// (a mis-wired model) panics deterministically instead of silently
// corrupting an unrelated request, preserving the sanity check the old
// seq→pending map gave for free.
func (m *MMU) releaseFlight(seq uint64) pending {
	p := m.flight[seq]
	if p.issued < 0 {
		panic(fmt.Sprintf("core: duplicate walker delivery for freed request slot %d", seq))
	}
	m.flight[seq] = pending{issued: -1}
	m.freeFlight = append(m.freeFlight, int32(seq))
	return p
}

func (m *MMU) submit(p pending) {
	seq := m.allocFlight(p)
	if !m.pool.Submit(walker.Request{VA: p.va, Seq: seq}) {
		m.releaseFlight(seq)
		if !m.stalled {
			m.stalled = true
			m.stats.StallEnter++
		}
		*m.blocked.Push() = p
	}
}

func (m *MMU) walkComplete(req walker.Request, e vm.Entry, now sim.Cycle) {
	p := m.releaseFlight(req.Seq)
	m.stats.Latency.Add(float64(now - p.issued))
	p.done(e, p.tag, now)
}

func (m *MMU) walkFault(req walker.Request, now sim.Cycle) {
	m.fault(m.releaseFlight(req.Seq), now)
}

func (m *MMU) fault(p pending, now sim.Cycle) {
	m.stats.Faults++
	if m.OnFault == nil {
		panic(fmt.Sprintf("core: unhandled page fault at VA %#x (no fault handler)", p.va))
	}
	m.OnFault(p.va, now, func() {
		m.stats.Retries++
		if m.cfg.Kind == Oracle {
			e, _, err := m.pt.Walk(p.va)
			if err != nil {
				panic(fmt.Sprintf("core: fault handler did not map VA %#x", p.va))
			}
			m.stats.Latency.Add(float64(m.q.Now() - p.issued))
			p.done(e, p.tag, m.q.Now())
			return
		}
		// Retried requests bypass the stall check: they re-enter via the
		// blocked queue if the pool is still full.
		m.lookup(p)
	})
}

func (m *MMU) capacityFreed(now sim.Cycle) {
	// Drain as many blocked requests as the pool will take, preserving
	// order; release back-pressure when empty.
	for m.blocked.Len() > 0 {
		p := *m.blocked.At(0)
		seq := m.allocFlight(p)
		if !m.pool.Submit(walker.Request{VA: p.va, Seq: seq}) {
			m.releaseFlight(seq)
			return
		}
		m.blocked.Pop()
	}
	if m.stalled {
		m.stalled = false
		if m.OnUnblocked != nil {
			m.OnUnblocked(now)
		}
	}
}
