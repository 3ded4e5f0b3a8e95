// Package memsys models the NPU's local memory system the way the paper
// does (§II-C): fixed access latency plus a sustained-bandwidth constraint,
// spread across a configurable number of address-interleaved channels,
// "rather than employing a cycle-level DRAM simulator to reduce simulation
// time."
//
// Table I baseline: 8 channels, 600 GB/s aggregate, 100-cycle access
// latency, 1 GHz clock (so 600 GB/s ≡ 600 bytes per cycle).
//
// An access is booked, not simulated: Claim reserves the transfer on its
// channel at the current cycle and returns when the last byte arrives,
// without scheduling an event. Callers that need a completion event
// schedule the arrivals they care about themselves; the DMA engine
// schedules only a tile's last one.
package memsys

import (
	"fmt"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

// Config describes a memory system.
type Config struct {
	// Channels is the number of independent memory channels (Table I: 8).
	Channels int
	// BytesPerCycle is the aggregate sustained bandwidth (600 GB/s at
	// 1 GHz = 600 B/cy).
	BytesPerCycle float64
	// Latency is the fixed access latency in cycles (Table I: 100).
	Latency int64
	// InterleaveBytes is the channel interleaving granularity.
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

// Memory is a bandwidth/latency memory model; it reads the current cycle
// from a sim.Queue.
type Memory struct {
	cfg      Config
	q        *sim.Queue
	channels []*sim.RateLimiter
	stats    Stats
}

// New builds a memory system clocked by q.
func New(cfg Config, q *sim.Queue) *Memory {
	cfg = cfg.withDefaults()
	m := &Memory{cfg: cfg, q: q}
	per := cfg.BytesPerCycle / float64(cfg.Channels)
	for i := 0; i < cfg.Channels; i++ {
		m.channels = append(m.channels, sim.NewRateLimiter(per))
	}
	return m
}

// Config returns the memory system's configuration after defaulting.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() Stats { return m.stats }

func (m *Memory) channel(pa vm.PhysAddr) *sim.RateLimiter {
	idx := (uint64(pa) / m.cfg.InterleaveBytes) % uint64(len(m.channels))
	return m.channels[idx]
}

// AccessCall claims the transfer and delivers its completion to handler h,
// registered on the memory's queue, with arg passed through: Claim plus
// one event per access.
func (m *Memory) AccessCall(pa vm.PhysAddr, bytes int64, h sim.HandlerID, arg int64) {
	m.q.Call(m.Claim(pa, bytes), h, arg)
}

// Claim books a read or write of the given size at physical address pa,
// issued at the current cycle, and returns the cycle its last byte
// arrives. The transfer serializes behind earlier traffic on its channel
// and then pays the fixed access latency. Claim schedules nothing, so a
// booking costs no event; sizes below one byte count as one.
func (m *Memory) Claim(pa vm.PhysAddr, bytes int64) sim.Cycle {
	if bytes <= 0 {
		bytes = 1
	}
	m.stats.Accesses++
	m.stats.Bytes += bytes
	ch := m.channel(pa)
	finish := ch.Claim(m.q.Now(), bytes) + sim.Cycle(m.cfg.Latency)
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
	for _, ch := range m.channels {
		if b := ch.BusyUntil(); b > max {
			max = b
		}
	}
	return max + sim.Cycle(m.cfg.Latency)
}

// Reset clears channel occupancy (statistics are preserved). Used between
// independently timed phases.
func (m *Memory) Reset() {
	for _, ch := range m.channels {
		ch.Reset()
	}
}

func (m *Memory) String() string {
	return fmt.Sprintf("Memory{%d ch, %.0f B/cy, %d cy latency}",
		m.cfg.Channels, m.cfg.BytesPerCycle, m.cfg.Latency)
}
