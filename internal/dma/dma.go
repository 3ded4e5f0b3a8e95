// Package dma models the NPU's DMA unit: it decomposes a tile (a set of
// tensor views) into linearized memory transactions, issues one address
// translation per cycle to the MMU, and streams the translated reads into
// the memory system. A tile's memory phase completes when the last data
// byte lands in the scratchpad.
//
// This is the component whose behaviour motivates the whole paper: tiles
// are multi-megabyte multi-dimensional tensors, so a single tile fetch
// explodes into thousands of per-page transactions whose translations
// arrive at the MMU as a dense burst (§III-C, Figs 6 and 7).
//
// The engine is allocation-free in steady state: the per-tile transaction
// and segment buffers are reused across fetches, the active tile's state
// lives in the engine (only one tile fetch is in flight at a time), and
// issue/translate/end all run on registered sim handlers instead of
// per-transaction closures. The issue chain fires once per cycle in the
// order it is scheduled, so its handler rides a queue lane
// (sim.Queue.RegisterLane) instead of the event heap. A tile's distinct
// pages are counted from its ascending page runs without hashing, with a
// set only for tiles that may revisit a page (see countPages).
//
// Memory arrivals are booked, not scheduled: each translated transaction
// claims its channel bandwidth at translate time (memsys.Memory.Claim),
// and the engine keeps only the tile's latest arrival. When the last
// translation lands, one event at that arrival ends the tile.
//
// The issue chain and the MMU's TLB probes are booked, too, up to the
// queue's horizon (book). Between two events from anything else — a walk
// finish, a PRMB drain, a tile end, a fault resolution — the chain's
// issues and the probes they make fire in an order fixed in advance, so
// the engine fires them itself, in their (cycle, ticket) order, with the
// queue's clock advanced to each. What is still due at the horizon goes
// back on the queue under the tickets it reserved. Every MMU kind takes
// this one path; an oracle tile, which has no probes, costs one event.
package dma

import (
	"neummu/internal/core"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/stats"
	"neummu/internal/tensor"
	"neummu/internal/vm"
)

// Transaction is one page-confined memory transaction.
type Transaction struct {
	VA    vm.VirtAddr
	Bytes int64
}

// DefaultBurst is the DMA's maximum transaction size. Contiguous runs
// larger than this split into multiple transactions, so a dense page is
// covered by several same-page transactions — the intra-tile translation
// locality that the PRMB merges (§IV-A: the number of translations
// invoked "can be much larger than the number of pages accessed").
const DefaultBurst = 1024

// SplitSegments decomposes segments into transactions: each maximal
// contiguous run is cut at page boundaries and at the DMA burst size
// (burst ≤ 0 selects DefaultBurst). Every resulting piece requires exactly
// one address translation.
func SplitSegments(segs []tensor.Segment, ps vm.PageSize, burst int64) []Transaction {
	return AppendTransactions(nil, segs, ps, burst)
}

// AppendTransactions is the buffer-reusing form of SplitSegments: it
// appends the transactions to dst and returns the extended slice, so a
// caller fetching tiles in a loop pays no per-tile slice growth.
func AppendTransactions(dst []Transaction, segs []tensor.Segment, ps vm.PageSize, burst int64) []Transaction {
	if burst <= 0 {
		burst = DefaultBurst
	}
	for _, s := range segs {
		va := s.VA
		remaining := s.Bytes
		for remaining > 0 {
			pageEnd := vm.PageBase(va, ps) + vm.VirtAddr(ps.Bytes())
			n := int64(pageEnd - va)
			if n > remaining {
				n = remaining
			}
			if n > burst {
				n = burst
			}
			dst = append(dst, Transaction{VA: va, Bytes: n})
			va += vm.VirtAddr(n)
			remaining -= n
		}
	}
	return dst
}

// TileStats summarizes one tile fetch (the per-tile rows behind Figs 6/7).
type TileStats struct {
	Transactions  int
	DistinctPages int
	Bytes         int64
	Start, End    sim.Cycle
	StallCycles   sim.Cycle // cycles the issue pipeline spent back-pressured
	// WatchedTransactions/WatchedPages narrow the counts to transactions
	// falling inside Engine.Watch (zero when no watch region is set) —
	// the KV-cache studies isolate the KV stream's share of a tile this
	// way.
	WatchedTransactions int
	WatchedPages        int
}

// Duration returns the tile's memory-phase length.
func (ts TileStats) Duration() sim.Cycle { return ts.End - ts.Start }

// tile is the active fetch's state. The DMA serializes tile fetches
// (§II-A), so one embedded instance, reset per fetch, replaces the
// per-tile closure web the engine used to allocate.
type tile struct {
	txns       []Transaction
	ts         TileStats
	next       int
	stallStart sim.Cycle
	done       func(TileStats)

	// untranslated counts transactions still awaiting translation;
	// lastArrival is the latest booked data arrival so far, and lastTicket
	// the firing-order position its completion event would have taken.
	untranslated int
	lastArrival  sim.Cycle
	lastTicket   sim.Ticket
}

// Engine is the DMA unit. One Engine serves one NPU.
type Engine struct {
	q   *sim.Queue
	mmu *core.MMU
	mem *memsys.Memory

	// Router, when non-nil, selects the memory serving a translated
	// access by its owning device (NUMA: device 0 is local memory, other
	// devices are reached over the system interconnect). Nil routes
	// everything to the local memory.
	Router func(device int) *memsys.Memory
	// Timeline, when non-nil, records issued translations per window
	// (Fig 7). VATrace, when non-nil, receives every issued VA (Fig 14).
	Timeline *stats.TimeSeries
	VATrace  func(va vm.VirtAddr, now sim.Cycle)
	// Watch, when non-nil, narrows the Watched* fields of TileStats to
	// transactions whose VA falls inside this region. The KV-cache
	// studies point it at a decoder's KV region to separate that stream's
	// translation profile from the surrounding query/weight traffic. The
	// watch bookkeeping runs only when set, so the default fetch path
	// stays on the zero-allocation budget.
	Watch *vm.Region

	pageDivergence stats.Dist // distinct pages per tile (Fig 6)
	tiles          int
	totalTxns      int64
	totalSegs      int64
	totalBytes     int64
	totalPages     int64
	totalStall     sim.Cycle

	cur    tile
	active bool
	// issues counts the issue events pending on the queue.
	issues int

	// Reused scratch: transaction/segment buffers and the distinct-page
	// set survive across tiles, and translated is the one persistent
	// TranslateFn serving every transaction (tagged with its index).
	txnBuf     []Transaction
	segBuf     []tensor.Segment
	pageSet    map[uint64]struct{}
	translated core.TranslateFn
	hIssue     sim.HandlerID
	hEnd       sim.HandlerID
}

// New builds a DMA engine over the given MMU and memory system, all
// scheduling on the same queue q. The engine installs itself as the MMU's
// back-pressure listener; only one tile fetch may be in flight at a time
// (the DMA serializes tile fetches, §II-A).
func New(q *sim.Queue, mmu *core.MMU, mem *memsys.Memory) *Engine {
	e := &Engine{q: q, mmu: mmu, mem: mem, pageSet: make(map[uint64]struct{})}
	e.translated = e.translateDone
	e.hIssue = q.RegisterLane(sim.HandlerFunc(e.fireIssue))
	e.hEnd = q.Register(sim.HandlerFunc(e.fireEnd))
	mmu.OnUnblocked = e.unblocked
	return e
}

// PageDivergence returns the distribution of distinct pages touched per
// tile fetch.
func (e *Engine) PageDivergence() stats.Dist { return e.pageDivergence }

// Tiles returns the number of tile fetches issued.
func (e *Engine) Tiles() int { return e.tiles }

// Transactions returns the total transaction count across all tiles.
func (e *Engine) Transactions() int64 { return e.totalTxns }

// Segments returns the total segment count across all tiles.
func (e *Engine) Segments() int64 { return e.totalSegs }

// Bytes returns the total bytes fetched across all tiles.
func (e *Engine) Bytes() int64 { return e.totalBytes }

// DistinctPages returns the sum over tiles of distinct pages touched
// (pages shared between tiles count once per tile, matching the per-tile
// divergence statistic).
func (e *Engine) DistinctPages() int64 { return e.totalPages }

// StallCycles returns the total cycles the issue pipeline spent
// back-pressured across all completed tiles.
func (e *Engine) StallCycles() sim.Cycle { return e.totalStall }

// FetchViews fetches the given tensor views as one tile: the views'
// segments are page-split, translated, and read. done fires with the
// tile's statistics when the last byte arrives.
//
// The fetch books its first issues at once, up to the queue's horizon,
// and moves the queue's clock with them: call it between events or as a
// handler's last action, never before a handler goes on to schedule.
func (e *Engine) FetchViews(views []tensor.View, done func(TileStats)) {
	segs := e.segBuf[:0]
	for _, v := range views {
		segs = v.AppendSegments(segs)
	}
	e.segBuf = segs
	e.FetchSegments(segs, done)
}

// FetchSegments fetches raw segments as one tile (used by the embedding
// gather path, whose accesses do not come from rectangular views).
func (e *Engine) FetchSegments(segs []tensor.Segment, done func(TileStats)) {
	ps := e.mmu.Config().PageSize
	txns := AppendTransactions(e.txnBuf[:0], segs, ps, DefaultBurst)
	e.txnBuf = txns
	e.totalSegs += int64(len(segs))
	e.fetch(txns, ps, done)
}

func (e *Engine) fetch(txns []Transaction, ps vm.PageSize, done func(TileStats)) {
	ts := TileStats{
		Transactions: len(txns),
		Start:        e.q.Now(),
	}
	for _, t := range txns {
		ts.Bytes += t.Bytes
	}
	ts.DistinctPages = e.countPages(txns, ps, nil)
	if e.Watch != nil {
		for _, t := range txns {
			if e.Watch.Contains(t.VA) {
				ts.WatchedTransactions++
			}
		}
		ts.WatchedPages = e.countPages(txns, ps, e.Watch)
	}
	e.tiles++
	e.totalTxns += int64(len(txns))
	e.totalBytes += ts.Bytes
	e.totalPages += int64(ts.DistinctPages)
	e.pageDivergence.Add(float64(ts.DistinctPages))

	if len(txns) == 0 {
		done(ts)
		return
	}

	e.cur = tile{
		txns:         txns,
		ts:           ts,
		stallStart:   -1,
		done:         done,
		untranslated: len(txns),
	}
	e.active = true
	if e.issues == 0 && e.mmu.HoldProbes() {
		e.book(e.q.Now(), e.q.Reserve())
		return
	}
	e.q.CallAfter(0, e.hIssue, 0)
	e.issues++
}

// book fires the issue chain and the MMU's held TLB probes in their
// (cycle, ticket) order without events, up to the queue's horizon: the
// next pending event from anything else. The chain's next issue is due
// at (at, t). The items fire exactly as their events would have:
//
//   - The clock is advanced to each item (sim.Queue.Advance), so walk
//     starts, issue cycles and latency statistics read the cycle the
//     item's event would have fired at.
//   - Each item takes its tickets where its event would have scheduled:
//     a probe's inside the lookup, then the next issue's. Every other
//     event therefore keeps its sequence number and its same-cycle order.
//   - Nothing fires between two items before the horizon, and only an
//     item that schedules an event (a walk start, a fault handler's
//     event, the tile end) can bring the horizon earlier; it is re-read
//     whenever the queue's scheduled count moves.
//   - At the horizon, the next issue goes back on the queue under its
//     ticket, and so do the probes booked in the run that are still
//     pending (core.MMU.ReleaseProbes).
//
// Misses are routed to the walkers inline, so the loop runs through them;
// a stall ends the chain as a stalled issue event would.
func (e *Engine) book(at sim.Cycle, t sim.Ticket) {
	issuing := true
	gen := e.q.Scheduled()
	hAt, hT := e.q.Horizon()
	for {
		pAt, pT, probing := e.mmu.NextProbe()
		if issuing && (!probing || sim.Before(at, t, pAt, pT)) {
			if !sim.Before(at, t, hAt, hT) {
				break
			}
			e.q.Advance(at)
			if issuing = e.issue(at); issuing {
				at, t = at+1, e.q.Reserve()
			}
		} else if probing && sim.Before(pAt, pT, hAt, hT) {
			e.q.Advance(pAt)
			e.mmu.ResolveProbe()
		} else {
			break
		}
		if g := e.q.Scheduled(); g != gen {
			gen = g
			hAt, hT = e.q.Horizon()
		}
	}
	if issuing {
		e.q.CallTicket(at, t, e.hIssue, 0)
		e.issues++
	}
	e.mmu.ReleaseProbes()
}

// maxPageRuns bounds the ascending page runs countPages tracks before it
// falls back to the distinct-page set.
const maxPageRuns = 8

// countPages returns the number of distinct pages among txns, counting
// only transactions inside region when it is non-nil. Transactions are
// page-confined and a tile's views are mostly ascending runs, so it
// counts pages without hashing: it splits the page sequence into
// strictly ascending runs, whose pages are distinct within each run, and
// sums them when no two runs' page ranges overlap. More than
// maxPageRuns runs, or two overlapping ones, could revisit a page; those
// tiles are counted with the set (countPagesSet).
func (e *Engine) countPages(txns []Transaction, ps vm.PageSize, region *vm.Region) int {
	var runs [maxPageRuns]struct{ lo, hi uint64 }
	nruns, n := 0, 0
	prev := ^uint64(0)
	for _, t := range txns {
		if region != nil && !region.Contains(t.VA) {
			continue
		}
		pn := vm.PageNumber(t.VA, ps)
		switch {
		case pn == prev:
			continue
		case pn > prev:
			runs[nruns-1].hi = pn
		case nruns == maxPageRuns:
			return e.countPagesSet(txns, ps, region)
		default:
			runs[nruns].lo, runs[nruns].hi = pn, pn
			nruns++
		}
		n++
		prev = pn
	}
	for i := 1; i < nruns; i++ {
		for j := 0; j < i; j++ {
			if runs[i].lo <= runs[j].hi && runs[j].lo <= runs[i].hi {
				return e.countPagesSet(txns, ps, region)
			}
		}
	}
	return n
}

// countPagesSet is countPages by a set insert per page change: a page
// equal to the previous counted transaction's is already in the set and
// skips the hash.
func (e *Engine) countPagesSet(txns []Transaction, ps vm.PageSize, region *vm.Region) int {
	clear(e.pageSet)
	prev := ^uint64(0)
	for _, t := range txns {
		if region != nil && !region.Contains(t.VA) {
			continue
		}
		if pn := vm.PageNumber(t.VA, ps); pn != prev {
			e.pageSet[pn] = struct{}{}
			prev = pn
		}
	}
	return len(e.pageSet)
}

// fireEnd ends the tile's memory phase at its last data arrival.
func (e *Engine) fireEnd(now sim.Cycle, _ int64) {
	c := &e.cur
	c.ts.End = now
	e.totalStall += c.ts.StallCycles
	e.active = false
	done := c.done
	c.done = nil
	done(c.ts)
}

// fireIssue is the issue chain's event. It books the chain from this
// issue on (book), or runs one plain link (chain) when booking could not
// keep the chain's order: another issue event is pending (see unblocked),
// or a probe event is off its lane.
func (e *Engine) fireIssue(now sim.Cycle, _ int64) {
	if e.issues--; e.issues == 0 && e.mmu.HoldProbes() {
		// This issue's event is firing, so it orders before everything
		// pending; ticket 0 keeps it there.
		e.book(now, 0)
		return
	}
	e.chain(now)
}

// chain issues one transaction and schedules the chain's next link.
func (e *Engine) chain(now sim.Cycle) {
	if e.issue(now) {
		e.q.CallAfter(1, e.hIssue, 0)
		e.issues++
	}
}

// issue issues the next transaction's translation — one per cycle
// (§III-C) — unless the MMU is applying back-pressure, in which case the
// engine parks until unblocked resumes it. It reports whether another
// issue follows, one cycle later.
func (e *Engine) issue(now sim.Cycle) bool {
	c := &e.cur
	if c.next >= len(c.txns) {
		return false
	}
	if e.mmu.Stalled() {
		// Resume via the unblock hook; account the stall.
		c.stallStart = now
		return false
	}
	t := c.txns[c.next]
	tag := int64(c.next)
	c.next++
	if e.Timeline != nil {
		e.Timeline.Record(int64(now), 1)
	}
	if e.VATrace != nil {
		e.VATrace(t.VA, now)
	}
	e.mmu.TranslateTag(t.VA, tag, e.translated)
	return c.next < len(c.txns)
}

// translateDone books one translated transaction on the memory system at
// cycle now. It is installed once as e.translated; the tag identifies the
// transaction, so no per-transaction closure is needed.
//
// Bookings happen in translation order at translation time, so each
// arrival depends only on the channel state its claim finds. Only the
// tile's end is observable, so only the latest arrival is scheduled, in
// the firing-order position reserved when it was booked: where an event
// scheduled by that booking would have fired. The latest booking wins
// ties, as a later-scheduled event fires later.
func (e *Engine) translateDone(entry vm.Entry, tag int64, now sim.Cycle) {
	c := &e.cur
	t := c.txns[tag]
	pa := entry.Frame + vm.PhysAddr(vm.PageOffset(t.VA, entry.Size))
	mem := e.mem
	if e.Router != nil {
		if m := e.Router(entry.Device); m != nil {
			mem = m
		}
	}
	if at := mem.Claim(now, pa, t.Bytes); at >= c.lastArrival {
		c.lastArrival, c.lastTicket = at, e.q.Reserve()
	}
	if c.untranslated--; c.untranslated == 0 {
		e.q.CallTicket(c.lastArrival, c.lastTicket, e.hEnd, 0)
	}
}

// unblocked is the MMU's back-pressure release hook. It runs inside a
// walker's event, which may go on to schedule, so it resumes the chain
// with a plain link rather than booking.
//
// Known modeling quirk, preserved deliberately: if the MMU stalls and
// unstalls within one cycle while an hIssue event is already pending,
// resuming here starts a second issue chain and the engine briefly
// exceeds one translation per cycle. The pre-refactor closure code
// behaved identically, and every committed figure is golden-diffed
// against that behaviour — fixing it means re-baselining all outputs, so
// it is documented rather than changed in this pass. While two chains
// run, neither books.
func (e *Engine) unblocked(now sim.Cycle) {
	if !e.active {
		return
	}
	c := &e.cur
	if c.stallStart >= 0 {
		c.ts.StallCycles += now - c.stallStart
		c.stallStart = -1
	}
	e.chain(now)
}
