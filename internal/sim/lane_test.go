package sim

import (
	"math/rand"
	"testing"
)

// firing is one fired event as a test observes it: the cycle, the index
// of the handler in the harness and the payload.
type firing struct {
	now Cycle
	h   int
	arg int64
}

// laneHarness drives one queue with a seeded random schedule. Every
// scheduling decision is drawn from rng inside the handlers, so two
// harnesses with the same seed make the same decisions for as long as
// their queues fire the same events.
type laneHarness struct {
	q       *Queue
	rng     *rand.Rand
	ids     []HandlerID
	log     []firing
	tickets []Ticket
	budget  int
}

// newLaneHarness registers five handlers; with lanes, the first three get
// lanes, and without, all five go through Register (the heap-only
// reference).
func newLaneHarness(seed int64, lanes bool) *laneHarness {
	h := &laneHarness{q: &Queue{}, rng: rand.New(rand.NewSource(seed)), budget: 3000}
	for i := 0; i < 5; i++ {
		fire := HandlerFunc(func(now Cycle, arg int64) { h.record(now, i, arg) })
		if lanes && i < 3 {
			h.ids = append(h.ids, h.q.RegisterLane(fire))
		} else {
			h.ids = append(h.ids, h.q.Register(fire))
		}
	}
	for i := 0; i < 20; i++ {
		h.schedule(0)
	}
	return h
}

func (h *laneHarness) record(now Cycle, src int, arg int64) {
	h.log = append(h.log, firing{now, src, arg})
	for n := 1 + h.rng.Intn(3); n > 0 && h.budget > 0; n-- {
		h.budget--
		h.schedule(now)
	}
}

// schedule makes one random scheduling call. Fixed per-handler delays
// keep lanes in order; random delays, absolute cycles in the past and
// old tickets push lane events out of order, onto the heap.
func (h *laneHarness) schedule(now Cycle) {
	r := h.rng
	i := r.Intn(len(h.ids))
	arg := r.Int63n(1000)
	switch r.Intn(6) {
	case 0, 1:
		h.q.CallAfter(Cycle(1+2*i), h.ids[i], arg)
	case 2:
		h.q.CallAfter(Cycle(r.Intn(8)), h.ids[i], arg)
	case 3:
		h.q.Call(now+Cycle(r.Intn(10))-3, h.ids[i], arg)
	case 4:
		h.tickets = append(h.tickets, h.q.Reserve())
	default:
		// An old ticket at a later cycle never orders before a fired
		// event, as CallTicket requires.
		if len(h.tickets) > 0 {
			t := h.tickets[0]
			h.tickets = h.tickets[1:]
			h.q.CallTicket(now+Cycle(1+r.Intn(4)), t, h.ids[i], arg)
		}
	}
}

// The queue with lanes fires exactly the events of the heap-only queue,
// in the same order, and agrees on Now, Fired and Len after every step
// and every RunUntil.
func TestLanesMatchHeapOnlyQueue(t *testing.T) {
	var laneEvents, fallbacks int
	for seed := int64(1); seed <= 60; seed++ {
		lq, ref := newLaneHarness(seed, true), newLaneHarness(seed, false)
		drive := rand.New(rand.NewSource(-seed))
		for step := 0; ; step++ {
			var more bool
			if drive.Intn(8) == 0 {
				limit := lq.q.Now() + Cycle(drive.Intn(6))
				drained := lq.q.RunUntil(limit)
				if refDrained := ref.q.RunUntil(limit); drained != refDrained {
					t.Fatalf("seed %d step %d: RunUntil(%d) = %v, reference %v", seed, step, limit, drained, refDrained)
				}
				more = !drained
			} else {
				more = lq.q.Step()
				if refMore := ref.q.Step(); more != refMore {
					t.Fatalf("seed %d step %d: Step = %v, reference %v", seed, step, more, refMore)
				}
			}
			if len(lq.log) != len(ref.log) {
				t.Fatalf("seed %d step %d: fired %d events, reference %d", seed, step, len(lq.log), len(ref.log))
			}
			for i := range lq.log {
				if lq.log[i] != ref.log[i] {
					t.Fatalf("seed %d: event %d fired as %+v, reference %+v", seed, i, lq.log[i], ref.log[i])
				}
			}
			if lq.q.Now() != ref.q.Now() || lq.q.Fired() != ref.q.Fired() || lq.q.Len() != ref.q.Len() {
				t.Fatalf("seed %d step %d: now/fired/len = %d/%d/%d, reference %d/%d/%d", seed, step,
					lq.q.Now(), lq.q.Fired(), lq.q.Len(), ref.q.Now(), ref.q.Fired(), ref.q.Len())
			}
			for i := range lq.q.lanes {
				laneEvents += lq.q.lanes[i].Len()
			}
			for _, it := range lq.q.heap {
				if lq.q.handlers[it.hid].lane >= 0 {
					fallbacks++
				}
			}
			if !more {
				break
			}
		}
		if lq.q.Len() != 0 || len(lq.log) < 100 {
			t.Fatalf("seed %d: %d events fired, %d left pending", seed, len(lq.log), lq.q.Len())
		}
	}
	// The comparison means something only if lanes held events and some
	// lane events fell back to the heap.
	if laneEvents == 0 || fallbacks == 0 {
		t.Fatalf("schedules never exercised lanes (%d lane events) or the heap fallback (%d)", laneEvents, fallbacks)
	}
}

func TestFIFOMatchesSlice(t *testing.T) {
	var f FIFO[int]
	var ref []int
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		// Bias toward pushes early and pops late, so the ring both grows
		// while wrapped and drains to empty.
		if len(ref) == 0 || rng.Intn(100) < 60-i/100 {
			*f.Push() = i
			ref = append(ref, i)
		} else {
			if got := f.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop = %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		}
		if f.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, f.Len(), len(ref))
		}
		if len(ref) > 0 && f.Back() != ref[len(ref)-1] {
			t.Fatalf("op %d: Back = %d, want %d", i, f.Back(), ref[len(ref)-1])
		}
	}
}
