package sim

import (
	"math/rand"
	"testing"
)

// chainHarness drives one queue with a seeded random schedule that mixes
// heap events, fixed-delay lane events and one-per-cycle chains. With
// upfront set, a chain of k links is k CallAfter(i+1) calls made at once
// on a heap-only queue; without it, the chain takes k tickets with
// ReserveN, schedules its first link, and each link schedules the next
// with CallTicket, on lanes. Every random decision is drawn inside
// handlers, so two harnesses with one seed decide alike for as long as
// they fire alike.
type chainHarness struct {
	q       *Queue
	rng     *rand.Rand
	upfront bool
	heapH   HandlerID
	laneH   HandlerID
	chainH  HandlerID
	chains  []Ticket // first ticket of chain c
	lengths []int64
	log     []firing
	budget  int
}

const (
	srcHeap = iota
	srcLane
	srcChain
)

func newChainHarness(seed int64, upfront bool) *chainHarness {
	h := &chainHarness{q: &Queue{}, rng: rand.New(rand.NewSource(seed)), upfront: upfront, budget: 3000}
	reg := h.q.RegisterLane
	if upfront {
		reg = h.q.Register
	}
	h.heapH = h.q.Register(HandlerFunc(func(now Cycle, arg int64) { h.record(now, srcHeap, arg) }))
	h.laneH = reg(HandlerFunc(func(now Cycle, arg int64) { h.record(now, srcLane, arg) }))
	h.chainH = reg(HandlerFunc(func(now Cycle, arg int64) {
		// A link's payload is chain<<16 | link index.
		if c, i := arg>>16, arg&0xFFFF; !h.upfront && i+1 < h.lengths[c] {
			h.q.CallTicket(now+1, h.chains[c]+Ticket(i+1), h.chainH, arg+1)
		}
		h.record(now, srcChain, arg)
	}))
	for i := 0; i < 10; i++ {
		h.schedule(0)
	}
	return h
}

func (h *chainHarness) record(now Cycle, src int, arg int64) {
	h.log = append(h.log, firing{now, src, arg})
	for n := 1 + h.rng.Intn(3); n > 0 && h.budget > 0; n-- {
		h.budget--
		h.schedule(now)
	}
}

func (h *chainHarness) schedule(now Cycle) {
	r := h.rng
	arg := r.Int63n(1000)
	switch r.Intn(6) {
	case 0:
		h.q.CallAfter(Cycle(r.Intn(6)), h.heapH, arg)
	case 1:
		h.q.CallAfter(2, h.laneH, arg)
	case 2:
		// Out of the lane's order: falls back to the heap.
		h.q.Call(now+Cycle(r.Intn(5))-2, h.laneH, arg)
	case 3, 4:
		c, k := int64(len(h.lengths)), 1+r.Int63n(8)
		h.lengths = append(h.lengths, k)
		if h.upfront {
			h.chains = append(h.chains, 0)
			for i := int64(0); i < k; i++ {
				h.q.CallAfter(Cycle(i+1), h.chainH, c<<16|i)
			}
			return
		}
		h.chains = append(h.chains, h.q.ReserveN(int(k)))
		h.q.CallTicket(now+1, h.chains[c], h.chainH, c<<16)
	default:
		h.q.Reserve()
	}
}

// A chain scheduled one link at a time from ReserveN tickets fires every
// link at the position the up-front CallAfters give it, amid random heap
// and lane events: same log, same Now and Fired after every step, with
// no more events pending than the up-front queue holds.
func TestReservedChainMatchesUpfront(t *testing.T) {
	var chainLinks, fallbacks int
	for seed := int64(1); seed <= 60; seed++ {
		cq, ref := newChainHarness(seed, false), newChainHarness(seed, true)
		for step := 0; ; step++ {
			more := cq.q.Step()
			if refMore := ref.q.Step(); more != refMore {
				t.Fatalf("seed %d step %d: Step = %v, reference %v", seed, step, more, refMore)
			}
			if len(cq.log) != len(ref.log) || (len(cq.log) > 0 && cq.log[len(cq.log)-1] != ref.log[len(ref.log)-1]) {
				t.Fatalf("seed %d step %d: fired %+v, reference %+v", seed, step, cq.log[len(cq.log)-1:], ref.log[len(ref.log)-1:])
			}
			if cq.q.Now() != ref.q.Now() || cq.q.Fired() != ref.q.Fired() || cq.q.Len() > ref.q.Len() {
				t.Fatalf("seed %d step %d: now/fired/len = %d/%d/%d, reference %d/%d/%d", seed, step,
					cq.q.Now(), cq.q.Fired(), cq.q.Len(), ref.q.Now(), ref.q.Fired(), ref.q.Len())
			}
			for _, it := range cq.q.heap {
				if HandlerID(it.hid) == cq.chainH {
					fallbacks++
				}
			}
			if !more {
				break
			}
		}
		for _, f := range cq.log {
			if f.h == srcChain {
				chainLinks++
			}
		}
		if len(cq.log) < 100 {
			t.Fatalf("seed %d: only %d events fired", seed, len(cq.log))
		}
	}
	if chainLinks == 0 || fallbacks == 0 {
		t.Fatalf("schedules never fired chain links (%d) or put one on the heap (%d)", chainLinks, fallbacks)
	}
}
