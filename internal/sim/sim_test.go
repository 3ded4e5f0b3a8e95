package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueFiresInTimeOrder(t *testing.T) {
	var q Queue
	var got []Cycle
	h := q.Register(HandlerFunc(func(now Cycle, _ int64) { got = append(got, now) }))
	for _, c := range []Cycle{30, 10, 20, 10, 5} {
		q.Call(c, h, 0)
	}
	q.Run()
	want := []Cycle{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestQueueSameCycleFIFO(t *testing.T) {
	var q Queue
	var order []int64
	h := q.Register(HandlerFunc(func(_ Cycle, arg int64) { order = append(order, arg) }))
	for i := 0; i < 10; i++ {
		q.Call(42, h, int64(i))
	}
	q.Run()
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("same-cycle events out of insertion order: %v", order)
		}
	}
}

// A ticket reserved before other same-cycle events were scheduled fires
// before them, as a Call made at reservation time would have; Fired
// counts every event, whichever call scheduled it.
func TestQueueReservedTicketKeepsFiringOrder(t *testing.T) {
	var q Queue
	var order []int64
	h := q.Register(HandlerFunc(func(_ Cycle, arg int64) { order = append(order, arg) }))
	early := q.Reserve()
	q.Call(42, h, 2)
	late := q.Reserve()
	q.Call(42, h, 4)
	q.CallTicket(42, late, h, 3)
	q.CallTicket(42, early, h, 1)
	q.Run()
	want := []int64{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if q.Fired() != 4 {
		t.Fatalf("Fired() = %d, want 4", q.Fired())
	}
}

func TestQueueNowAdvancesMonotonically(t *testing.T) {
	var q Queue
	last := Cycle(-1)
	h := q.Register(HandlerFunc(func(now Cycle, _ int64) {
		if now < last {
			t.Fatalf("time went backwards: %d after %d", now, last)
		}
		last = now
	}))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q.Call(Cycle(rng.Intn(1000)), h, 0)
	}
	q.Run()
}

func TestQueuePastSchedulingClamps(t *testing.T) {
	var q Queue
	fired := Cycle(-1)
	var h HandlerID
	h = q.Register(HandlerFunc(func(now Cycle, arg int64) {
		if arg == 0 {
			// Schedule "in the past"; must fire at now, not before.
			q.Call(5, h, 1)
			return
		}
		fired = now
	}))
	q.Call(100, h, 0)
	q.Run()
	if fired != 100 {
		t.Fatalf("past-scheduled event fired at %d, want clamp to 100", fired)
	}
}

func TestQueueAfterIsRelative(t *testing.T) {
	var q Queue
	var at Cycle
	var h HandlerID
	h = q.Register(HandlerFunc(func(now Cycle, arg int64) {
		if arg == 0 {
			q.CallAfter(25, h, 1)
			return
		}
		at = now
	}))
	q.Call(50, h, 0)
	q.Run()
	if at != 75 {
		t.Fatalf("CallAfter(25) from cycle 50 fired at %d, want 75", at)
	}
}

func TestQueueRunUntil(t *testing.T) {
	var q Queue
	count := 0
	h := q.Register(HandlerFunc(func(Cycle, int64) { count++ }))
	for _, c := range []Cycle{10, 20, 30, 40} {
		q.Call(c, h, 0)
	}
	if q.RunUntil(25) {
		t.Fatal("RunUntil(25) reported drained with events pending")
	}
	if count != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", count)
	}
	if !q.RunUntil(100) {
		t.Fatal("RunUntil(100) should drain the queue")
	}
	if count != 4 {
		t.Fatalf("fired %d events total, want 4", count)
	}
}

func TestQueueCascade(t *testing.T) {
	// A chain of events each scheduling the next must run to completion.
	var q Queue
	depth := 0
	var h HandlerID
	h = q.Register(HandlerFunc(func(Cycle, int64) {
		depth++
		if depth < 1000 {
			q.CallAfter(1, h, 0)
		}
	}))
	q.Call(0, h, 0)
	end := q.Run()
	if depth != 1000 {
		t.Fatalf("cascade depth %d, want 1000", depth)
	}
	if end != 999 {
		t.Fatalf("cascade ended at cycle %d, want 999", end)
	}
}

// Property: for any set of scheduled cycles, the firing order is the sorted
// order of the (clamped) cycles.
func TestQueueOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var q Queue
		var fired []Cycle
		h := q.Register(HandlerFunc(func(now Cycle, _ int64) { fired = append(fired, now) }))
		for _, d := range delays {
			q.Call(Cycle(d), h, 0)
		}
		q.Run()
		want := make([]Cycle, len(delays))
		for i, d := range delays {
			want[i] = Cycle(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimiterSerializes(t *testing.T) {
	r := NewRateLimiter(64, 1) // 64 B/cycle
	// Two back-to-back 640-byte transfers at cycle 0: 10 cycles each.
	if got := r.Claim(0, 640); got != 10 {
		t.Fatalf("first claim done at %d, want 10", got)
	}
	if got := r.Claim(0, 640); got != 20 {
		t.Fatalf("second claim done at %d, want 20", got)
	}
	// A transfer arriving after the backlog clears starts fresh.
	if got := r.Claim(100, 640); got != 110 {
		t.Fatalf("idle-arrival claim done at %d, want 110", got)
	}
}

func TestRateLimiterMinimumOccupancy(t *testing.T) {
	r := NewRateLimiter(600, 1)
	// A 1-byte transfer still occupies at least one cycle slot.
	if got := r.Claim(0, 1); got != 1 {
		t.Fatalf("tiny claim done at %d, want 1", got)
	}
}

func TestRateLimiterLongRunRate(t *testing.T) {
	// Sustained throughput over many claims is exactly the rate: the
	// half cycle each claim leaves over is carried, not dropped.
	r := NewRateLimiter(600, 1)
	const n = 10000
	var done Cycle
	for i := 0; i < n; i++ {
		done = r.Claim(0, 1500) // 2.5 cycles each
	}
	if done != 25000 {
		t.Fatalf("long-run completion %d, want exactly 25000", done)
	}
}

// Over any busy period, the limiter's end is its start plus the period's
// bytes at the exact rate, whole cycles only: Σ bytes·den/num rounded
// down, the fraction carried and dropped when the resource goes idle. A
// claim too small to fill a cycle on its own (with the carry) takes the
// one-cycle minimum and drops the carry, which starts a new period at its
// end. The oracle checks every claim over random rates, sizes and gaps.
func TestRateLimiterExactOverBusyPeriods(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, rate := range [][2]int64{{75, 1}, {600, 8}, {25, 1}, {16, 1}, {160, 1}, {3, 2}, {3, 7}, {1, 1}} {
		num, den := rate[0], rate[1]
		r := NewRateLimiter(num, den)
		var start, end Cycle // the current period and its last claim's end
		var sum int64        // Σ bytes·den over the period
		var minimums, periods int
		for i := 0; i < 200000; i++ {
			at := end - Cycle(rng.Intn(4))
			if rng.Intn(8) == 0 {
				at = end + 1 + Cycle(rng.Intn(20)) // an idle gap
			}
			bytes := 1 + rng.Int63n(5000)
			if rng.Intn(16) == 0 {
				bytes = 1 + rng.Int63n(2*num) // small enough to hit the minimum
			}
			if at > end {
				start, sum = at, 0
				periods++
			}
			var want Cycle
			if next := sum + bytes*den; next/num == sum/num {
				want, start, sum = end+1, end+1, 0
				if at > want-1 {
					want, start = at+1, at+1
				}
				minimums++
			} else {
				sum = next
				want = start + Cycle(sum/num)
			}
			if got := r.Claim(at, bytes); got != want {
				t.Fatalf("rate %d/%d claim %d (%d B at %d): end %d, want %d", num, den, i, bytes, at, got, want)
			}
			end = want
		}
		// A claim fills at least den/num cycles, so only rates above one
		// byte per cycle can hit the minimum.
		if periods == 0 || (minimums == 0 && num > den) {
			t.Fatalf("rate %d/%d: schedule hit the minimum %d times over %d idle gaps", num, den, minimums, periods)
		}
	}
}

func TestRateLimiterReset(t *testing.T) {
	r := NewRateLimiter(64, 1)
	r.Claim(0, 6400)
	r.Reset()
	if r.BusyUntil() != 0 {
		t.Fatal("Reset did not clear occupancy")
	}
}

func TestRateLimiterRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRateLimiter(0, 1) did not panic")
		}
	}()
	NewRateLimiter(0, 1)
}
