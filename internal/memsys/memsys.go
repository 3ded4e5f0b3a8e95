// Package memsys models the NPU's local memory system the way the paper
// does (§II-C): fixed access latency plus a sustained-bandwidth constraint,
// spread across a configurable number of address-interleaved channels,
// "rather than employing a cycle-level DRAM simulator to reduce simulation
// time."
//
// Table I baseline: 8 channels, 600 GB/s aggregate, 100-cycle access
// latency, 1 GHz clock (so 600 GB/s ≡ 600 bytes per cycle).
//
// Channels and the interleave granularity must be powers of two, so a
// channel is picked with a shift and a mask; each channel books its share
// of the bandwidth exactly, as an integer rate (sim.RateLimiter).
//
// An access is booked, not simulated: Claim reserves the transfer on its
// channel at the cycle it is issued and returns when the last byte
// arrives, without scheduling an event. Callers that need a completion event
// schedule the arrivals they care about themselves; the DMA engine
// schedules only a tile's last one.
package memsys

import (
	"fmt"
	"math/bits"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

// Config describes a memory system.
type Config struct {
	// Channels is the number of independent memory channels (Table I: 8),
	// a power of two.
	Channels int
	// BytesPerCycle is the aggregate sustained bandwidth (600 GB/s at
	// 1 GHz = 600 B/cy). Each channel gets BytesPerCycle/Channels, kept
	// as an exact fraction.
	BytesPerCycle int64
	// Latency is the fixed access latency in cycles (Table I: 100).
	Latency int64
	// InterleaveBytes is the channel interleaving granularity, a power of
	// two.
	InterleaveBytes uint64
}

// Baseline returns the paper's Table I memory system. Channels interleave
// at 4 KB granularity so page-sized DMA transactions to consecutive pages
// spread across channels (a finer interleave would put a whole transaction
// on one channel, under-reporting achievable bandwidth).
func Baseline() Config {
	return Config{Channels: 8, BytesPerCycle: 600, Latency: 100, InterleaveBytes: 4096}
}

func (c Config) withDefaults() Config {
	if c.Channels <= 0 {
		c.Channels = 1
	}
	if c.BytesPerCycle <= 0 {
		c.BytesPerCycle = 600
	}
	if c.Latency < 0 {
		c.Latency = 0
	}
	if c.InterleaveBytes == 0 {
		c.InterleaveBytes = 256
	}
	return c
}

// Stats aggregates memory activity.
type Stats struct {
	Accesses    int64
	Bytes       int64
	WalkReads   int64 // page-table node reads (energy accounting)
	MaxOccupied sim.Cycle
}

// Memory is a bandwidth/latency memory model. Claim takes its issue cycle
// from the caller; the sim.Queue serves only AccessCall's completion
// event.
type Memory struct {
	cfg      Config
	q        *sim.Queue
	channels []sim.RateLimiter
	shift    uint   // log2(InterleaveBytes)
	mask     uint64 // Channels - 1
	stats    Stats
}

// New builds a memory system clocked by q. It panics if Channels or
// InterleaveBytes (after defaulting) is not a power of two.
func New(cfg Config, q *sim.Queue) *Memory {
	cfg = cfg.withDefaults()
	if !powerOfTwo(uint64(cfg.Channels)) || !powerOfTwo(cfg.InterleaveBytes) {
		panic(fmt.Sprintf("memsys: Channels (%d) and InterleaveBytes (%d) must be powers of two",
			cfg.Channels, cfg.InterleaveBytes))
	}
	m := &Memory{
		cfg:      cfg,
		q:        q,
		channels: make([]sim.RateLimiter, cfg.Channels),
		shift:    uint(bits.TrailingZeros64(cfg.InterleaveBytes)),
		mask:     uint64(cfg.Channels - 1),
	}
	for i := range m.channels {
		m.channels[i] = sim.NewRateLimiter(cfg.BytesPerCycle, int64(cfg.Channels))
	}
	return m
}

func powerOfTwo(x uint64) bool { return x != 0 && x&(x-1) == 0 }

// Config returns the memory system's configuration after defaulting.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() Stats { return m.stats }

func (m *Memory) channel(pa vm.PhysAddr) *sim.RateLimiter {
	return &m.channels[uint64(pa)>>m.shift&m.mask]
}

// AccessCall claims the transfer and delivers its completion to handler h,
// registered on the memory's queue, with arg passed through: Claim plus
// one event per access.
func (m *Memory) AccessCall(pa vm.PhysAddr, bytes int64, h sim.HandlerID, arg int64) {
	m.q.Call(m.Claim(m.q.Now(), pa, bytes), h, arg)
}

// Claim books a read or write of the given size at physical address pa,
// issued at cycle at, and returns the cycle its last byte arrives. The
// transfer serializes behind earlier traffic on its channel and then pays
// the fixed access latency. Claim schedules nothing, so a booking costs
// no event, and it reads no clock, so a caller may book a run of
// transactions at their issue cycles without firing one. Sizes below one
// byte count as one.
func (m *Memory) Claim(at sim.Cycle, pa vm.PhysAddr, bytes int64) sim.Cycle {
	if bytes <= 0 {
		bytes = 1
	}
	m.stats.Accesses++
	m.stats.Bytes += bytes
	ch := m.channel(pa)
	finish := ch.Claim(at, bytes) + sim.Cycle(m.cfg.Latency)
	if finish > m.stats.MaxOccupied {
		m.stats.MaxOccupied = finish
	}
	return finish
}

// CountWalkRead records a page-table node read. Following the paper, walk
// reads do not contend with data traffic for bandwidth (their latency is
// already folded into the per-level walk latency) but they are counted for
// the energy model.
func (m *Memory) CountWalkRead() {
	m.stats.WalkReads++
	m.stats.Accesses++
	m.stats.Bytes += 8
}

// DrainTime estimates when all currently queued traffic clears.
func (m *Memory) DrainTime() sim.Cycle {
	var max sim.Cycle
	for i := range m.channels {
		if b := m.channels[i].BusyUntil(); b > max {
			max = b
		}
	}
	return max + sim.Cycle(m.cfg.Latency)
}

// Reset clears channel occupancy (statistics are preserved). Used between
// independently timed phases.
func (m *Memory) Reset() {
	for i := range m.channels {
		m.channels[i].Reset()
	}
}

func (m *Memory) String() string {
	return fmt.Sprintf("Memory{%d ch, %d B/cy, %d cy latency}",
		m.cfg.Channels, m.cfg.BytesPerCycle, m.cfg.Latency)
}
