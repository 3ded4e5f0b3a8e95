package memsys

import (
	"testing"

	"neummu/internal/sim"
	"neummu/internal/vm"
)

func TestSingleAccessLatency(t *testing.T) {
	q := &sim.Queue{}
	m := New(Config{Channels: 1, BytesPerCycle: 600, Latency: 100}, q)
	at := m.Claim(0, 0, 600)
	// 600 bytes at 600 B/cy = 1 cycle of occupancy + 100 cycles latency.
	if at != 101 {
		t.Fatalf("completion at %d, want 101", at)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	q := &sim.Queue{}
	m := New(Config{Channels: 1, BytesPerCycle: 100, Latency: 10}, q)
	var done []sim.Cycle
	for i := 0; i < 3; i++ {
		done = append(done, m.Claim(0, 0, 1000))
	}
	// Each access occupies 10 cycles of channel time: 10, 20, 30 (+10 latency).
	want := []sim.Cycle{20, 30, 40}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("access %d done at %d, want %d", i, done[i], want[i])
		}
	}
}

func TestChannelParallelism(t *testing.T) {
	// Two accesses to different channels proceed concurrently; to the same
	// channel they serialize.
	q := &sim.Queue{}
	cfg := Config{Channels: 2, BytesPerCycle: 200, Latency: 0, InterleaveBytes: 256}
	m := New(cfg, q)
	a := m.Claim(0, 0, 1000)   // channel 0
	b := m.Claim(0, 256, 1000) // channel 1
	c := m.Claim(0, 512, 1000) // channel 0 again
	if a != 10 || b != 10 {
		t.Fatalf("parallel accesses done at %d, %d; want 10, 10", a, b)
	}
	if c != 20 {
		t.Fatalf("same-channel access done at %d, want 20", c)
	}
}

func TestAggregateBandwidthSplitsAcrossChannels(t *testing.T) {
	q := &sim.Queue{}
	m := New(Baseline(), q)
	if got := m.Config().BytesPerCycle; got != 600 {
		t.Fatalf("aggregate bandwidth %v", got)
	}
	// Perfectly interleaved traffic achieves aggregate bandwidth: 8
	// channels × 75 B/cy. 48000 bytes spread over 8 channels should clear
	// in about 48000/600 = 80 cycles (+latency).
	var last sim.Cycle
	for i := 0; i < 64; i++ {
		pa := vm.PhysAddr(i * 4096)
		last = max(last, m.Claim(0, pa, 750))
	}
	want := sim.Cycle(48000/600 + 100)
	if last < want-2 || last > want+2 {
		t.Fatalf("interleaved drain at %d, want about %d", last, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	q := &sim.Queue{}
	m := New(Baseline(), q)
	m.Claim(0, 0, 64)
	m.Claim(0, 4096, 64)
	m.CountWalkRead()
	s := m.Stats()
	if s.Accesses != 3 || s.Bytes != 136 || s.WalkReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroByteAccessStillCounts(t *testing.T) {
	q := &sim.Queue{}
	m := New(Baseline(), q)
	if at := m.Claim(0, 0, 0); at != 101 {
		t.Fatalf("zero-byte access arrives at %d, want one channel slot plus latency (101)", at)
	}
	if m.Stats().Bytes != 1 {
		t.Fatalf("zero-byte access recorded %d bytes, want clamped to 1", m.Stats().Bytes)
	}
}

func TestReset(t *testing.T) {
	q := &sim.Queue{}
	m := New(Config{Channels: 1, BytesPerCycle: 1, Latency: 5}, q)
	m.Claim(0, 0, 1000)
	if m.DrainTime() < 1000 {
		t.Fatal("channel should be backed up")
	}
	m.Reset()
	if m.DrainTime() != 5 {
		t.Fatalf("DrainTime after reset = %d, want just latency", m.DrainTime())
	}
	if m.Stats().Accesses != 1 {
		t.Fatal("Reset must preserve statistics")
	}
}

// Claim books at the cycle it is given, not the queue's clock: a claim
// issued at cycle 500 on an idle channel arrives one slot plus the
// latency later although the queue still reads cycle 0.
func TestClaimBooksAtGivenCycle(t *testing.T) {
	q := &sim.Queue{}
	m := New(Config{Channels: 1, BytesPerCycle: 600, Latency: 100}, q)
	if at := m.Claim(500, 0, 600); at != 601 {
		t.Fatalf("claim issued at 500 arrives at %d, want 601", at)
	}
	if at := m.Claim(500, 0, 600); at != 602 {
		t.Fatalf("second claim at 500 arrives at %d, want 602 (behind the first)", at)
	}
}

// Claim books without scheduling; AccessCall is Claim plus one event at
// the booked arrival, carrying its argument through.
func TestClaimSchedulesNothing(t *testing.T) {
	q := &sim.Queue{}
	m := New(Baseline(), q)
	// 4096 B at 75 B/cy per channel: 54.6 cycles of occupancy + 100.
	if at := m.Claim(0, 0, 4096); at != 154 || q.Len() != 0 {
		t.Fatalf("Claim arrives at %d with %d events pending, want 154 and none", at, q.Len())
	}
	var firedAt sim.Cycle
	var gotArg int64
	h := q.Register(sim.HandlerFunc(func(now sim.Cycle, arg int64) { firedAt, gotArg = now, arg }))
	m.AccessCall(8*4096, 4096, h, 7) // channel 0 again, behind the first
	q.Run()
	if firedAt != 209 || gotArg != 7 || q.Fired() != 1 {
		t.Fatalf("AccessCall fired %d events, at %d with arg %d; want 1, at 209 with 7",
			q.Fired(), firedAt, gotArg)
	}
}

func TestDefaults(t *testing.T) {
	q := &sim.Queue{}
	m := New(Config{}, q)
	c := m.Config()
	if c.Channels != 1 || c.BytesPerCycle != 600 || c.InterleaveBytes != 256 {
		t.Fatalf("defaults = %+v", c)
	}
}

// Channels are picked by shift and mask, so a layout that is not a power
// of two is refused when the memory is built, not mis-mapped later.
func TestNewRejectsNonPowerOfTwoLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"baseline", Baseline(), true},
		{"defaults", Config{}, true},
		{"one channel", Config{Channels: 1, BytesPerCycle: 16, InterleaveBytes: 4096}, true},
		{"3 channels", Config{Channels: 3, BytesPerCycle: 600, InterleaveBytes: 4096}, false},
		{"interleave 3000", Config{Channels: 8, BytesPerCycle: 600, InterleaveBytes: 3000}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r == nil) != c.ok {
					t.Fatalf("New(%+v) panicked = %v, want %v", c.cfg, r != nil, !c.ok)
				}
			}()
			New(c.cfg, &sim.Queue{})
		})
	}
}
