package numa

import (
	"neummu/internal/core"
	"neummu/internal/sim"
	"neummu/internal/vm"
)

// pager implements the demand-paging runtime of §VI-A: it services page
// faults by migrating the faulting page over the system interconnect into
// local memory, coalescing concurrent faults on one page, optionally
// evicting under an oversubscribed local memory, and optionally promoting
// hot 2 MB regions to large pages (the Mosaic-style extension).
type pager struct {
	q      *sim.Queue
	pt     *vm.PageTable
	mmu    *core.MMU
	frames *vm.FrameAllocator
	huge   *vm.FrameAllocator
	link   *sim.RateLimiter
	sys    SystemConfig
	ps     vm.PageSize
	mosaic bool
	res    *Result

	// Migration-landed handlers, one per install kind; each event's
	// payload is the faulting VA.
	smallLanded, hugeLanded sim.HandlerID

	pending map[vm.VirtAddr][]func()
	// pendingRegion coalesces faults landing in a 2 MB region whose
	// promotion is already in flight: they resolve when the large page
	// installs instead of starting their own migrations.
	pendingRegion map[vm.VirtAddr][]func()

	// Residency bookkeeping for eviction: page base → entry.
	resident      map[vm.VirtAddr]*residentPage
	residentBytes int64
	tick          int64

	// Mosaic bookkeeping: 2 MB region base → resident small pages.
	regionPages map[vm.VirtAddr]int
	promoted    map[vm.VirtAddr]bool

	promoteThreshold int

	// localStatic backs statically mapped local-table pages (owned here
	// so the session can allocate lazily per batch).
	localStatic *vm.FrameAllocator
}

type residentPage struct {
	size vm.PageSize
	tick int64
}

func newPager(q *sim.Queue, pt *vm.PageTable, mmu *core.MMU, link *sim.RateLimiter,
	sys SystemConfig, ps vm.PageSize, mosaic bool, res *Result) *pager {
	thr := sys.MosaicPromoteThreshold
	if thr <= 0 {
		// Promote once an eighth of the region (64 of 512 small pages) is
		// resident: eager enough to catch the zipf head, conservative
		// enough that lukewarm regions do not trigger 2 MB migrations.
		thr = 64
	}
	pg := &pager{
		q: q, pt: pt, mmu: mmu, link: link, sys: sys, ps: ps, mosaic: mosaic, res: res,
		frames:           vm.NewFrameAllocator(1<<40, ps, 0),
		huge:             vm.NewFrameAllocator(1<<40, vm.Page2M, 0),
		pending:          make(map[vm.VirtAddr][]func()),
		pendingRegion:    make(map[vm.VirtAddr][]func()),
		resident:         make(map[vm.VirtAddr]*residentPage),
		regionPages:      make(map[vm.VirtAddr]int),
		promoted:         make(map[vm.VirtAddr]bool),
		promoteThreshold: thr,
	}
	pg.smallLanded = q.Register(sim.HandlerFunc(pg.landSmall))
	pg.hugeLanded = q.Register(sim.HandlerFunc(pg.landHuge))
	return pg
}

// fault is installed as the MMU's fault handler.
func (pg *pager) fault(va vm.VirtAddr, now sim.Cycle, resolve func()) {
	page := vm.PageBase(va, pg.ps)
	region := vm.PageBase(va, vm.Page2M)
	// A promotion already covering this region satisfies this fault when
	// it lands; do not start a second migration.
	if waiters, inflight := pg.pendingRegion[region]; inflight {
		pg.pendingRegion[region] = append(waiters, resolve)
		return
	}
	if waiters, inflight := pg.pending[page]; inflight {
		pg.pending[page] = append(waiters, resolve)
		return
	}

	promote := pg.mosaic && pg.ps == vm.Page4K && !pg.promoted[region] &&
		pg.regionPages[region]+1 >= pg.promoteThreshold

	var bytes int64
	if promote {
		// Migrate the region's remaining non-resident bytes and install
		// one 2 MB mapping in place of its small pages. Register the
		// region immediately so concurrent faults coalesce onto it.
		residentBytes := int64(pg.regionPages[region]) * int64(vm.Page4K.Bytes())
		bytes = int64(vm.Page2M.Bytes()) - residentBytes
		pg.pendingRegion[region] = []func(){resolve}
	} else {
		bytes = int64(pg.ps.Bytes())
		pg.pending[page] = []func(){resolve}
	}
	pg.res.Faults++
	pg.res.MigratedBytes += bytes

	transferDone := pg.link.Claim(now+sim.Cycle(pg.sys.FaultOverhead), bytes)
	landed := pg.smallLanded
	if promote {
		landed = pg.hugeLanded
	}
	pg.q.Call(transferDone+sim.Cycle(pg.sys.NUMALatency), landed, int64(va))
}

// landSmall installs the small page holding va once its migration lands
// and resolves the faults parked on it.
func (pg *pager) landSmall(_ sim.Cycle, arg int64) {
	va := vm.VirtAddr(arg)
	page := vm.PageBase(va, pg.ps)
	pg.installSmall(page, va)
	waiters := pg.pending[page]
	delete(pg.pending, page)
	for _, w := range waiters {
		w()
	}
}

// landHuge installs the promoted 2 MB region holding va once its
// migration lands and resolves the faults parked on it.
func (pg *pager) landHuge(_ sim.Cycle, arg int64) {
	va := vm.VirtAddr(arg)
	region := vm.PageBase(va, vm.Page2M)
	pg.installHuge(region, va)
	waiters := pg.pendingRegion[region]
	delete(pg.pendingRegion, region)
	for _, w := range waiters {
		w()
	}
}

func (pg *pager) installSmall(page, va vm.VirtAddr) {
	pg.evictFor(int64(pg.ps.Bytes()))
	pg.pt.Map(page, pg.frames.Alloc(), pg.ps, 0)
	pg.mmu.InvalidateTLB(va)
	pg.tick++
	pg.resident[page] = &residentPage{size: pg.ps, tick: pg.tick}
	pg.residentBytes += int64(pg.ps.Bytes())
	if pg.mosaic && pg.ps == vm.Page4K {
		pg.regionPages[vm.PageBase(va, vm.Page2M)]++
	}
}

// installHuge promotes a 2 MB region: its small pages are unmapped and
// replaced with a single large mapping.
func (pg *pager) installHuge(region, va vm.VirtAddr) {
	small := int64(vm.Page4K.Bytes())
	for p := region; p < region+vm.VirtAddr(vm.Page2M.Bytes()); p += vm.VirtAddr(small) {
		if _, ok := pg.resident[p]; ok {
			pg.pt.Unmap(p, vm.Page4K)
			pg.mmu.InvalidateTLB(p)
			delete(pg.resident, p)
			pg.residentBytes -= small
		}
	}
	pg.evictFor(int64(vm.Page2M.Bytes()))
	pg.pt.Map(region, pg.huge.Alloc(), vm.Page2M, 0)
	pg.mmu.InvalidateTLB(va)
	pg.tick++
	pg.resident[region] = &residentPage{size: vm.Page2M, tick: pg.tick}
	pg.residentBytes += int64(vm.Page2M.Bytes())
	pg.promoted[region] = true
	pg.res.Promotions++
	delete(pg.regionPages, region)
}

// evictFor frees capacity for an incoming page under oversubscription by
// unmapping the least-recently-migrated resident pages.
func (pg *pager) evictFor(incoming int64) {
	cap := pg.sys.LocalCapacity
	if cap <= 0 {
		return
	}
	for pg.residentBytes+incoming > cap && len(pg.resident) > 0 {
		var victim vm.VirtAddr
		oldest := int64(1<<62 - 1)
		for p, r := range pg.resident {
			if r.tick < oldest {
				oldest, victim = r.tick, p
			}
		}
		r := pg.resident[victim]
		pg.pt.Unmap(victim, r.size)
		pg.mmu.InvalidateTLB(victim)
		pg.residentBytes -= int64(r.size.Bytes())
		delete(pg.resident, victim)
		if r.size == vm.Page4K && pg.mosaic {
			region := vm.PageBase(victim, vm.Page2M)
			if pg.regionPages[region] > 0 {
				pg.regionPages[region]--
			}
		}
		if r.size == vm.Page2M {
			delete(pg.promoted, victim)
		}
		pg.res.Evictions++
	}
}
