// Package sim provides the event-driven simulation core shared by every
// timing model in the repository — a 64-bit cycle clock, a deterministic
// binary-heap event queue, and the admission limiters (RateLimiter for
// simulated bandwidth, WorkerPool for host-side parallelism) that every
// higher layer builds on.
//
// All NeuMMU timing components (DMA issue, TLB lookups, page-table walks,
// interconnect transfers) are expressed as events on a single queue.
// Memory transactions are booked on RateLimiters, in exact integer
// time, without events; only a tile's last arrival is scheduled (see
// Reserve). The DMA issue chain and the TLB probes are fired by their
// owners up to the queue's horizon, in the order their events would
// have fired (see Horizon). Determinism matters for reproducibility: events scheduled for
// the same cycle fire in insertion order, so repeated runs of a seeded
// experiment produce bit-identical statistics.
//
// A Queue is deliberately single-goroutine: one simulation owns one queue
// and never shares it. Parallelism lives one level up — the experiment
// harness (internal/exp) runs many independent simulations at once over a
// WorkerPool, each with its own Queue, which is how sweeps scale across
// cores without perturbing any individual simulation's event order.
//
// # Zero-allocation scheduling
//
// The queue has one scheduling contract: a component registers a Handler
// once (Register), then schedules (handler ID, payload) pairs with
// Call/CallAfter. Heap items are scalar-only — no pointers — so the sift
// operations of push/pop incur no GC write barriers and the steady-state
// schedule/fire cycle performs zero heap allocations (see
// BenchmarkQueueScheduleCall).
//
// # Lanes
//
// Most events of a translation-bound simulation have a fixed delay: the
// DMA issues one translation per cycle, every TLB probe resolves a
// constant hit latency later, and a landed walk drains its merged
// requests one per cycle (a chain scheduled link by link from ReserveN
// tickets). Such events are scheduled in the order they fire, so a heap
// push and pop buys them nothing. A handler registered with RegisterLane
// gets its own FIFO lane: an event for it joins the lane when it sorts
// after the lane's newest event, and goes to the heap otherwise. Each
// lane is therefore sorted, and Step fires the least of the heap's top
// and the lane heads under the same (cycle, sequence) order the heap
// uses. That order is strict and total, so the event fired is the one an
// all-heap queue would fire: lanes change the host cost of an event,
// never which event fires next. A lane's ring grows to its working size
// once and then schedules and fires without allocating
// (TestAllocLaneSteadyState).
//
// # Horizon
//
// A component that owns a fixed-delay chain can run it without events.
// Horizon returns the firing key of the next pending event: every chain
// link that sorts before it would fire before anything else could, so
// the component may fire such links itself, in their (cycle, ticket)
// order, moving the clock to each with Advance. Its links take their
// tickets with Reserve exactly where they would have been scheduled, and
// whatever is still due when the horizon is reached goes back on the
// queue under those tickets (CallTicket), so every event keeps the key it
// would have had. A component whose events ride a lane can hold that lane
// for such a run (Hold): Horizon then skips it, and the component fires
// the lane's events itself, dropping each as it does (Drop). The DMA
// engine runs the issue chain and the TLB probes this way (internal/dma).
//
// docs/ARCHITECTURE.md describes how this queue composes with the rest
// of the simulator: the handler contract, the worker model,
// and the determinism guarantee the sweep engine builds on top.
package sim

import "math"

// Cycle is a point in simulated time, measured in NPU clock cycles
// (1 GHz in the baseline configuration, so one cycle is 1 ns).
type Cycle int64

// Handler is the zero-allocation event target: components register one
// Handler per event kind and dispatch on the scalar payload.
type Handler interface {
	Fire(now Cycle, arg int64)
}

// HandlerFunc adapts a function to the Handler interface. Func values are
// pointer-shaped, so converting a HandlerFunc to Handler does not allocate
// (the underlying closure, if capturing, is allocated once at Register
// time).
type HandlerFunc func(now Cycle, arg int64)

// Fire implements Handler.
func (f HandlerFunc) Fire(now Cycle, arg int64) { f(now, arg) }

// HandlerID names a Handler registered on one specific Queue. IDs are not
// portable across queues.
type HandlerID int32

// item is one pending event: the handler to fire and its payload. It
// holds no pointers, which is what makes push/pop write-barrier-free.
type item struct {
	at  Cycle
	seq uint64
	arg int64
	hid int32
}

// handler is one registered Handler and the lane its events may take.
type handler struct {
	h    Handler
	lane int32 // index into Queue.lanes; -1 for a heap-only handler
}

// Queue is a deterministic min-heap event queue with FIFO lanes for
// handlers whose events arrive in firing order (see RegisterLane).
//
// The zero value is ready to use.
type Queue struct {
	heap  []item
	lanes []FIFO[item]
	seq   uint64
	now   Cycle

	handlers  []handler
	fired     int64
	scheduled int64

	// bounded is set while RunUntil runs; limit is its last cycle, and
	// Horizon does not reach past it.
	bounded bool
	limit   Cycle
	// held is one more than the index of the lane Horizon skips (see
	// Hold); zero holds none.
	held int
}

// Now returns the current simulation time: the cycle of the most recently
// fired event (0 before any event fires).
func (q *Queue) Now() Cycle { return q.now }

// Len returns the number of pending events, on the heap and in lanes.
func (q *Queue) Len() int {
	n := len(q.heap)
	for i := range q.lanes {
		n += q.lanes[i].Len()
	}
	return n
}

// Fired returns the number of events fired so far.
func (q *Queue) Fired() int64 { return q.fired }

// Scheduled returns the number of events scheduled so far. A component
// running a chain up to the Horizon re-reads the horizon only when this
// count moves: nothing else can bring the next pending event earlier.
func (q *Queue) Scheduled() int64 { return q.scheduled }

// Horizon returns the cycle and ticket of the next pending event, the one
// Step would fire next: the least of the heap's top and the lane heads,
// leaving out a held lane (see Hold). Under RunUntil it is no later than
// the window's end, (limit, MaxTicket): nothing due after limit fires
// before RunUntil returns. With nothing pending it returns (MaxCycle,
// MaxTicket), a key after every event.
func (q *Queue) Horizon() (Cycle, Ticket) {
	at, t := MaxCycle, MaxTicket
	if len(q.heap) > 0 {
		at, t = q.heap[0].at, Ticket(q.heap[0].seq)
	}
	for i := range q.lanes {
		if ln := &q.lanes[i]; ln.n > 0 && i != q.held-1 {
			if head := &ln.buf[ln.head]; Before(head.at, Ticket(head.seq), at, t) {
				at, t = head.at, Ticket(head.seq)
			}
		}
	}
	if q.bounded && at > q.limit {
		at, t = q.limit, MaxTicket
	}
	return at, t
}

// Before reports whether the key (at, t) fires before the key (bat, bt):
// the queue's (cycle, sequence) order.
func Before(at Cycle, t Ticket, bat Cycle, bt Ticket) bool {
	return at < bat || at == bat && t < bt
}

// Advance moves the clock forward to cycle at, without firing anything,
// so a component firing its own chain links (see Horizon) schedules and
// reads time from each link's cycle. at must not pass the Horizon; an at
// before Now leaves the clock where it is.
func (q *Queue) Advance(at Cycle) {
	if at > q.now {
		q.now = at
	}
}

// Hold takes handler id's lane out of Horizon, so the lane's owner can
// fire the lane's events itself, in order, dropping each with Drop. The
// lane must hold exactly n events, the owner's count of its pending
// events for id; otherwise some sit on the heap, and Hold holds nothing
// and reports false. One lane is held at a time, until Release. The
// queue fires no event while a lane is held: the holder runs inside a
// handler or between Steps.
func (q *Queue) Hold(id HandlerID, n int) bool {
	l := q.handlers[id].lane
	if l < 0 || q.lanes[l].n != n {
		return false
	}
	q.held = int(l) + 1
	return true
}

// Drop removes the oldest event on the held lane without firing it.
func (q *Queue) Drop() {
	ln := &q.lanes[q.held-1]
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	ln.n--
}

// Release ends a Hold.
func (q *Queue) Release() { q.held = 0 }

// Grow reserves backing capacity for at least n simultaneously pending
// events, so a simulation whose peak event population is known up front
// never re-grows the heap mid-run.
func (q *Queue) Grow(n int) {
	if cap(q.heap) < n {
		grown := make([]item, len(q.heap), n)
		copy(grown, q.heap)
		q.heap = grown
	}
}

// Register installs h on this queue and returns its ID for Call/CallAfter.
// Registration is a setup-time operation (one append per component); the
// scheduling fast path never touches the handler table's shape.
func (q *Queue) Register(h Handler) HandlerID {
	q.handlers = append(q.handlers, handler{h: h, lane: -1})
	return HandlerID(len(q.handlers) - 1)
}

// RegisterLane installs h like Register and gives it a FIFO lane. Use it
// for a handler whose events are almost always scheduled in the order
// they fire, such as a fixed-delay chain: those events skip the heap. An
// event that would fire before the lane's newest one (an older reserved
// ticket, a second chain) goes to the heap instead, so the lane is an
// optimization only and firing order is the same as under Register.
func (q *Queue) RegisterLane(h Handler) HandlerID {
	q.handlers = append(q.handlers, handler{h: h, lane: int32(len(q.lanes))})
	q.lanes = append(q.lanes, FIFO[item]{})
	return HandlerID(len(q.handlers) - 1)
}

// Call schedules handler id to fire with arg at absolute cycle at.
// Scheduling in the past (at < Now) clamps to the current cycle, which
// keeps composed models safe when a zero-latency hop is computed from
// stale state. Call performs no heap allocation once the queue's backing
// array has reached its working size.
func (q *Queue) Call(at Cycle, id HandlerID, arg int64) {
	if at < q.now {
		at = q.now
	}
	q.schedule(item{at: at, seq: q.seq, hid: int32(id), arg: arg})
	q.seq++
}

// CallAfter schedules handler id to fire with arg delay cycles from now.
func (q *Queue) CallAfter(delay Cycle, id HandlerID, arg int64) {
	q.Call(q.now+delay, id, arg)
}

// Ticket is a position in the queue's firing order among events of the
// same cycle, taken by Reserve.
type Ticket uint64

// MaxCycle and MaxTicket form the key Horizon returns for an empty
// queue: later than any event.
const (
	MaxCycle  = Cycle(math.MaxInt64)
	MaxTicket = Ticket(math.MaxUint64)
)

// Reserve takes the firing-order position a Call made now would get,
// without scheduling anything. A component that books many completion
// times but needs only the last one delivered takes a ticket for each
// booking that becomes the new latest, then schedules that one with
// CallTicket: the event fires exactly where the booking's own event would
// have, relative to every other event, so dropping the others cannot
// reorder anything.
func (q *Queue) Reserve() Ticket { return q.ReserveN(1) }

// ReserveN takes n consecutive firing-order positions, the ones n Calls
// made now would get, and returns the first; the others are the tickets
// that follow it. A chain of events that would all be scheduled now, one
// per cycle, can then be scheduled one at a time instead: each event
// schedules the next with CallTicket and its reserved ticket, so every
// link fires at exactly the (cycle, position) the up-front Call would
// have given it, and only one link is pending at a time.
func (q *Queue) ReserveN(n int) Ticket {
	t := Ticket(q.seq)
	q.seq += uint64(n)
	return t
}

// CallTicket schedules handler id to fire with arg at cycle at, in the
// same-cycle position t reserved earlier. Like Call it clamps at to Now;
// the caller must not pass an (at, t) that orders before an event that
// has already fired.
func (q *Queue) CallTicket(at Cycle, t Ticket, id HandlerID, arg int64) {
	if at < q.now {
		at = q.now
	}
	q.schedule(item{at: at, seq: uint64(t), hid: int32(id), arg: arg})
}

// schedule queues a handler event: on its handler's lane when it sorts
// after the lane's newest event, which keeps every lane sorted, and on
// the heap otherwise.
//
// Lane pushes and pops work on the ring's fields in place: FIFO's generic
// methods are not inlined here, and these run once per event.
func (q *Queue) schedule(it item) {
	q.scheduled++
	if l := q.handlers[it.hid].lane; l >= 0 {
		ln := &q.lanes[l]
		if ln.n == 0 || less(ln.Back(), it) {
			if ln.n == len(ln.buf) {
				ln.grow()
			}
			ln.buf[(ln.head+ln.n)&(len(ln.buf)-1)] = it
			ln.n++
			return
		}
	}
	q.push(it)
}

// Step fires the earliest pending event and reports whether one existed.
func (q *Queue) Step() bool { return q.step(MaxCycle) }

// step fires the earliest pending event if it is due by limit, and reports
// whether it fired one. Every lane is sorted and the heap's top is its
// minimum, so the least of the heap's top and the lane heads is the
// earliest pending event.
func (q *Queue) step(limit Cycle) bool {
	var next *item
	if len(q.heap) > 0 {
		next = &q.heap[0]
	}
	var from *FIFO[item]
	for i := range q.lanes {
		if ln := &q.lanes[i]; ln.n > 0 {
			if head := &ln.buf[ln.head]; next == nil || less(*head, *next) {
				next, from = head, ln
			}
		}
	}
	if next == nil || next.at > limit {
		return false
	}
	it := *next
	if from == nil {
		q.pop()
	} else {
		from.head = (from.head + 1) & (len(from.buf) - 1)
		from.n--
	}
	if it.at > q.now {
		q.now = it.at
	}
	q.fired++
	q.handlers[it.hid].h.Fire(q.now, it.arg)
	return true
}

// Run drains the queue, firing events in order, and returns the cycle of
// the last event fired. Components keep the simulation alive by scheduling
// follow-on events from inside their callbacks, so a drained queue means
// the modeled phase reached quiescence.
func (q *Queue) Run() Cycle {
	for q.Step() {
	}
	return q.now
}

// RunUntil fires events up to and including cycle limit, returning true if
// the queue drained before the limit was reached.
func (q *Queue) RunUntil(limit Cycle) bool {
	q.bounded, q.limit = true, limit
	for q.step(limit) {
	}
	q.bounded = false
	return q.Len() == 0
}

// The heap is 4-ary with hole-style sifting: half the levels of a binary
// heap (pop dominated the simulation profile) and one final write instead
// of a swap per level. Any heap arity pops the same sequence — (at, seq)
// is a strict total order, so the minimum is unique — which keeps event
// ordering, and therefore every figure's output, bit-identical.
const heapArity = 4

func (q *Queue) push(it item) {
	q.heap = append(q.heap, it)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !less(it, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = it
}

func (q *Queue) pop() item {
	top := q.heap[0]
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := heapArity*i + 1
		if c >= last {
			break
		}
		end := c + heapArity
		if end > last {
			end = last
		}
		smallest := c
		for j := c + 1; j < end; j++ {
			if less(q.heap[j], q.heap[smallest]) {
				smallest = j
			}
		}
		if !less(q.heap[smallest], moved) {
			break
		}
		q.heap[i] = q.heap[smallest]
		i = smallest
	}
	q.heap[i] = moved
	return top
}

func less(a, b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
