// Package tlb implements the translation lookaside buffer used by both the
// baseline IOMMU model and NeuMMU: a set-associative, LRU-replaced cache of
// virtual-page-number → physical-frame translations with a fixed hit
// latency (5 cycles in the paper's Table I).
//
// The paper's central observation (§III-C) is that TLBs — however large —
// cannot filter NPU translation bursts, because the burst queries the TLB
// before the in-flight page-table walk has delivered the fill. The TLB
// model therefore deliberately has no magic forwarding: a lookup either
// hits on an installed entry or misses, and fills happen only when a walk
// completes.
package tlb

import (
	"fmt"

	"neummu/internal/vm"
)

// Config describes a TLB's geometry.
type Config struct {
	// Entries is the total entry count (Table I baseline: 2048).
	Entries int
	// Ways is the associativity. Ways >= Entries (or Ways <= 0) selects a
	// fully-associative organization.
	Ways int
	// HitLatency is the lookup latency in cycles (Table I: 5).
	HitLatency int64
	// PageSize determines the VPN extraction granularity.
	PageSize vm.PageSize
}

// Baseline returns the paper's baseline IOTLB configuration for the given
// page size: 2048 entries, 8-way, 5-cycle hit latency.
func Baseline(ps vm.PageSize) Config {
	return Config{Entries: 2048, Ways: 8, HitLatency: 5, PageSize: ps}
}

// Stats aggregates TLB activity.
type Stats struct {
	Lookups   int64
	Hits      int64
	Misses    int64
	Fills     int64
	Evictions int64
}

// HitRate returns Hits/Lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

type entry struct {
	vpn    uint64
	frame  vm.PhysAddr
	device int
	valid  bool
	lru    uint64 // larger = more recently used
}

// TLB is a set-associative translation cache.
type TLB struct {
	cfg   Config
	sets  [][]entry
	nsets int
	tick  uint64
	stats Stats
}

// New builds a TLB from cfg. Entry counts that do not divide evenly by the
// associativity are rounded up to the next full set.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic("tlb: Entries must be positive")
	}
	ways := cfg.Ways
	if ways <= 0 || ways > cfg.Entries {
		ways = cfg.Entries // fully associative
	}
	nsets := (cfg.Entries + ways - 1) / ways
	sets := make([][]entry, nsets)
	backing := make([]entry, nsets*ways)
	for i := range sets {
		sets[i] = backing[i*ways : (i+1)*ways]
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = vm.Page4K
	}
	return &TLB{cfg: cfg, sets: sets, nsets: nsets}
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a snapshot of the TLB's counters.
func (t *TLB) Stats() Stats { return t.stats }

// HitLatency returns the configured lookup latency.
func (t *TLB) HitLatency() int64 { return t.cfg.HitLatency }

func (t *TLB) set(vpn uint64) []entry {
	return t.sets[vpn%uint64(t.nsets)]
}

// Lookup probes the TLB for the page containing va. On a hit it returns
// the translated frame base and the device holding it.
func (t *TLB) Lookup(va vm.VirtAddr) (frame vm.PhysAddr, device int, hit bool) {
	t.stats.Lookups++
	vpn := vm.PageNumber(va, t.cfg.PageSize)
	t.tick++
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lru = t.tick
			t.stats.Hits++
			return set[i].frame, set[i].device, true
		}
	}
	t.stats.Misses++
	return 0, 0, false
}

// Contains probes without disturbing LRU state or statistics.
func (t *TLB) Contains(va vm.VirtAddr) bool {
	vpn := vm.PageNumber(va, t.cfg.PageSize)
	for _, e := range t.set(vpn) {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}

// Fill installs a translation, evicting the LRU way of the set if full.
func (t *TLB) Fill(va vm.VirtAddr, frame vm.PhysAddr, device int) {
	vpn := vm.PageNumber(va, t.cfg.PageSize)
	t.tick++
	t.stats.Fills++
	set := t.set(vpn)
	// A resident copy may sit in any way, also past an invalidated hole,
	// so the whole set is checked before a victim is chosen: a second
	// copy would survive the next Invalidate and keep serving a stale
	// frame.
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			// Refill of a resident page just refreshes it.
			set[i].frame = frame
			set[i].device = device
			set[i].lru = t.tick
			return
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		t.stats.Evictions++
	}
	set[victim] = entry{vpn: vpn, frame: frame, device: device, valid: true, lru: t.tick}
}

// Invalidate removes the translation for va's page, if present. Used by
// the page-migration path: after a page moves devices the stale mapping
// must not serve accesses.
func (t *TLB) Invalidate(va vm.VirtAddr) {
	vpn := vm.PageNumber(va, t.cfg.PageSize)
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].valid = false
			return
		}
	}
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	for _, set := range t.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

// Occupancy returns the number of valid entries.
func (t *TLB) Occupancy() int {
	n := 0
	for _, set := range t.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}

func (t *TLB) String() string {
	return fmt.Sprintf("TLB{%d entries, %d-way, hit=%dcy, %s pages}",
		t.cfg.Entries, len(t.sets[0]), t.cfg.HitLatency, t.cfg.PageSize)
}
