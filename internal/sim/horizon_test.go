package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// key is an event's firing key: its cycle and its ticket.
type key struct {
	at Cycle
	t  Ticket
}

func (k key) before(o key) bool { return Before(k.at, k.t, o.at, o.t) }

// horizonHarness drives one queue with lanes through a seeded random
// schedule, like laneHarness, and keeps the key of every pending event
// on the side, by a unique payload.
type horizonHarness struct {
	q       *Queue
	rng     *rand.Rand
	ids     []HandlerID
	pending map[int64]key
	next    int64
	tickets []Ticket
	budget  int
	// limit is RunUntil's window while bounded is set.
	limit   Cycle
	bounded bool
	fired   []key
	t       *testing.T
}

func newHorizonHarness(t *testing.T, seed int64) *horizonHarness {
	h := &horizonHarness{q: &Queue{}, rng: rand.New(rand.NewSource(seed)), pending: map[int64]key{}, budget: 2000, t: t}
	for i := 0; i < 5; i++ {
		fire := HandlerFunc(h.fire)
		if i < 3 {
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

// want is the horizon the pending set implies: its least key, or the
// window's end under RunUntil, or the empty queue's key.
func (h *horizonHarness) want() key {
	least := key{MaxCycle, MaxTicket}
	for _, k := range h.pending {
		if k.before(least) {
			least = k
		}
	}
	if h.bounded && least.at > h.limit {
		least = key{h.limit, MaxTicket}
	}
	return least
}

func (h *horizonHarness) fire(now Cycle, id int64) {
	k := h.pending[id]
	delete(h.pending, id)
	if k.at != now {
		h.t.Fatalf("event %d fired at %d, scheduled for %d", id, now, k.at)
	}
	h.fired = append(h.fired, k)
	// Inside a handler, as the DMA engine asks: under RunUntil the
	// horizon stops at the window's end.
	if at, t := h.q.Horizon(); (key{at, t}) != h.want() {
		h.t.Fatalf("in handler at %d: Horizon = (%d, %d), want %+v", now, at, t, h.want())
	}
	for n := 1 + h.rng.Intn(3); n > 0 && h.budget > 0; n-- {
		h.budget--
		h.schedule(now)
	}
}

// schedule makes one random scheduling call and records its key.
func (h *horizonHarness) schedule(now Cycle) {
	r := h.rng
	i := r.Intn(len(h.ids))
	id := h.next
	h.next++
	var k key
	switch r.Intn(6) {
	case 0, 1:
		k = key{now + Cycle(1+2*i), Ticket(h.q.seq)}
		h.q.CallAfter(Cycle(1+2*i), h.ids[i], id)
	case 2:
		// Call clamps a cycle in the past to Now.
		at := now + Cycle(r.Intn(10)) - 3
		k = key{max(at, now), Ticket(h.q.seq)}
		h.q.Call(at, h.ids[i], id)
	case 3:
		h.tickets = append(h.tickets, h.q.Reserve())
		return
	default:
		if len(h.tickets) == 0 {
			return
		}
		k = key{now + Cycle(1+r.Intn(4)), h.tickets[0]}
		h.tickets = h.tickets[1:]
		h.q.CallTicket(k.at, k.t, h.ids[i], id)
	}
	h.pending[id] = k
}

// Horizon returns exactly the key of the event the next Step fires, on
// random schedules whose lane events also fall back to the heap, and
// (MaxCycle, MaxTicket) once the queue is empty. Under RunUntil,
// handlers see it stop at the window's end.
func TestHorizonMatchesStep(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		h := newHorizonHarness(t, seed)
		drive := rand.New(rand.NewSource(-seed))
		for step := 0; ; step++ {
			at, tk := h.q.Horizon()
			if (key{at, tk}) != h.want() {
				t.Fatalf("seed %d step %d: Horizon = (%d, %d), want %+v", seed, step, at, tk, h.want())
			}
			if drive.Intn(6) == 0 {
				h.limit, h.bounded = h.q.Now()+Cycle(drive.Intn(6)), true
				h.q.RunUntil(h.limit)
				h.bounded = false
				continue
			}
			n := len(h.fired)
			if !h.q.Step() {
				if at != MaxCycle || tk != MaxTicket || len(h.pending) != 0 {
					t.Fatalf("seed %d: queue drained with Horizon (%d, %d) and %d events pending", seed, at, tk, len(h.pending))
				}
				break
			}
			if got := h.fired[n]; got != (key{at, tk}) {
				t.Fatalf("seed %d step %d: Step fired %+v, Horizon said (%d, %d)", seed, step, got, at, tk)
			}
		}
		if len(h.fired) < 100 {
			t.Fatalf("seed %d: only %d events fired", seed, len(h.fired))
		}
	}
}

// Hold takes a lane out of Horizon only when it holds exactly the count
// the caller names; Drop removes the held lane's oldest event unfired;
// Advance moves the clock forward and never back.
func TestHoldDropAndAdvance(t *testing.T) {
	q := &Queue{}
	var fired []Cycle
	lane := q.RegisterLane(HandlerFunc(func(now Cycle, _ int64) { fired = append(fired, now) }))
	heap := q.Register(HandlerFunc(func(Cycle, int64) {}))
	q.CallAfter(3, lane, 0)
	q.CallAfter(4, lane, 0)
	q.CallAfter(2, lane, 0) // sorts before the lane's newest: heap
	q.CallAfter(5, heap, 0)
	if q.Hold(lane, 3) || q.Hold(heap, 0) {
		t.Fatal("Hold held a lane with one of its handler's events on the heap, or a heap handler")
	}
	if at, _ := q.Horizon(); at != 2 {
		t.Fatalf("Horizon at %d, want the heap's lane event at 2", at)
	}
	q.Step() // the heap's lane event, at 2
	if !q.Hold(lane, 2) {
		t.Fatal("Hold declined with both of the handler's pending events on its lane")
	}
	if at, _ := q.Horizon(); at != 5 {
		t.Fatalf("Horizon at %d with the lane held, want the heap event at 5", at)
	}
	q.Drop() // the event at 3, fired by its owner
	q.Advance(3)
	q.Advance(0)
	if q.Now() != 3 {
		t.Fatalf("Now = %d after Advance(3), Advance(0)", q.Now())
	}
	q.Release()
	if at, _ := q.Horizon(); at != 4 {
		t.Fatalf("Horizon at %d after Release, want the lane event at 4", at)
	}
	if q.Run(); !reflect.DeepEqual(fired, []Cycle{2, 4}) {
		t.Fatalf("lane events fired at %v, want 2 and 4: the dropped one never fires", fired)
	}
}
