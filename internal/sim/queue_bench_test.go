package sim

import "testing"

// BenchmarkQueueScheduleCall measures the steady-state cost of the
// schedule/fire cycle the way the timing models drive it: each fired event
// schedules a follow-on for the next cycle on a registered Handler with a
// scalar payload. Heap items are pointer-free, so the cycle is
// allocation- and write-barrier-free; the interesting number is
// allocs/op.
func BenchmarkQueueScheduleCall(b *testing.B) {
	q := &Queue{}
	n := 0
	var h HandlerID
	h = q.Register(HandlerFunc(func(now Cycle, arg int64) {
		if n < b.N {
			n++
			q.CallAfter(1, h, arg+1)
		}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	q.CallAfter(1, h, 0)
	q.Run()
}
