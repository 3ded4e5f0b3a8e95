package sim

import "testing"

// The simulation core's scheduling contract: once warm, the
// schedule/fire cycle performs zero heap allocations. These budgets are
// what keep long simulations out of the garbage collector; they run in CI
// under -race so the property cannot silently regress.

func TestQueueScheduleCallAllocFree(t *testing.T) {
	q := &Queue{}
	fired := 0
	h := q.Register(HandlerFunc(func(now Cycle, arg int64) { fired++ }))
	q.Grow(16)
	allocs := testing.AllocsPerRun(1000, func() {
		q.CallAfter(1, h, 7)
		q.CallAfter(2, h, 8)
		q.Step()
		q.Step()
	})
	if allocs != 0 {
		t.Errorf("handler schedule/fire allocates %v objects per op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("handler never fired")
	}
}

// An event that schedules its own follow-on from inside its handler — the
// shape every timing-model cascade takes — allocates nothing either.
func TestQueueScheduleEventAllocFree(t *testing.T) {
	q := &Queue{}
	fired := 0
	var h HandlerID
	h = q.Register(HandlerFunc(func(now Cycle, arg int64) {
		fired++
		if arg > 0 {
			q.CallAfter(1, h, arg-1)
		}
	}))
	q.Grow(16)
	allocs := testing.AllocsPerRun(1000, func() {
		q.CallAfter(1, h, 3)
		q.Run()
	})
	if allocs != 0 {
		t.Errorf("cascading schedule/fire allocates %v objects per op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("event never fired")
	}
}

// Lanes keep the budget: once a lane's ring has grown to its working
// size, scheduling on it and firing from it allocate nothing, also when
// an out-of-order event falls back to the heap.
func TestAllocLaneSteadyState(t *testing.T) {
	q := &Queue{}
	fired := 0
	issue := q.RegisterLane(HandlerFunc(func(now Cycle, arg int64) { fired++ }))
	probe := q.RegisterLane(HandlerFunc(func(now Cycle, arg int64) { fired++ }))
	q.Grow(16)
	step := func() {
		q.CallAfter(1, issue, 0)
		q.CallAfter(5, probe, 0)
		q.CallAfter(0, issue, 0) // sorts before the lane's tail: heap
		for q.Len() > 4 {
			q.Step()
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("lane schedule/fire allocates %v objects per op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("lane handlers never fired")
	}
}
