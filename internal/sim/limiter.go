package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the repository's two admission limiters:
//
//   - RateLimiter bounds *simulated* throughput: bytes per simulated cycle
//     through a modeled resource (a DRAM channel, an interconnect link).
//   - WorkerPool bounds *host* concurrency: simulations running at once on
//     the machine executing the experiments.
//
// The two never interact — a simulation is single-goroutine by design, so
// RateLimiter needs no locking, while WorkerPool schedules whole
// simulations and never touches simulated time.

// RateLimiter serializes access to a resource that admits a fixed number of
// byte-equivalents per cycle, such as a memory channel or an interconnect
// link. It is the building block for every bandwidth model in the
// repository.
//
// Claim returns the cycle at which a request of the given size finishes
// occupying the resource; the caller typically adds a fixed access latency
// on top to obtain the completion time.
//
// The rate is the exact fraction num/den bytes per cycle, and time is
// integer: a claim of b bytes occupies b·den/num cycles, and the fraction
// of a cycle that does not fill a whole one is carried, in units of 1/num
// cycle, into the next back-to-back claim; an idle gap drops it. So a
// busy period's end is exactly its start plus ⌊Σ b·den/num⌋ whatever the
// claim sizes (claims raised to the one-cycle minimum aside), with no
// float rounding to drift.
type RateLimiter struct {
	num, den  int64 // rate: num bytes per den cycles
	busyUntil Cycle
	debt      int64 // carried part of a cycle, in 1/num cycles; < num
}

// NewRateLimiter returns a limiter that admits bytes bytes every cycles
// cycles. Both must be positive.
func NewRateLimiter(bytes, cycles int64) RateLimiter {
	if bytes <= 0 || cycles <= 0 {
		panic("sim: RateLimiter requires positive throughput")
	}
	return RateLimiter{num: bytes, den: cycles}
}

// Claim reserves the resource for a transfer of size bytes arriving at
// cycle at, and returns the cycle at which the transfer's last byte has
// passed through.
func (r *RateLimiter) Claim(at Cycle, bytes int64) Cycle {
	start := r.busyUntil
	if at > start {
		start = at
		r.debt = 0
	}
	n := bytes*r.den + r.debt
	whole := Cycle(n / r.num)
	r.debt = n % r.num
	if whole < 1 {
		// Even tiny transfers occupy the resource for one cycle slot.
		whole = 1
		r.debt = 0
	}
	r.busyUntil = start + whole
	return r.busyUntil
}

// BusyUntil reports the cycle at which the resource becomes free.
func (r *RateLimiter) BusyUntil() Cycle { return r.busyUntil }

// Reset clears the limiter's occupancy state.
func (r *RateLimiter) Reset() {
	r.busyUntil = 0
	r.debt = 0
}

// WorkerPool fans index-addressed tasks out over a bounded number of
// goroutines. It is the execution substrate of the design-space sweep
// engine (internal/exp): every figure, table, and sweep hands the pool one
// task per grid cell, and each task runs one independent single-goroutine
// simulation (its own event Queue, page tables, and DMA engine), so the
// pool parallelizes across simulations without ever threading one.
//
// Determinism is the caller's contract and the pool's reason to exist in
// this repository: because tasks write results by index and Do reports the
// lowest-indexed failure, the observable outcome of a pool run is
// independent of goroutine interleaving — a sweep executed on 1 worker and
// on 64 workers yields byte-identical rows.
type WorkerPool struct {
	workers int
}

// NewWorkerPool returns a pool executing at most workers tasks
// concurrently. workers <= 0 selects GOMAXPROCS; workers == 1 yields a
// pool that runs tasks inline on the calling goroutine, the serial
// baseline that parallel sweeps are validated against.
func NewWorkerPool(workers int) *WorkerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{workers: workers}
}

// Workers reports the pool's concurrency bound.
func (p *WorkerPool) Workers() int { return p.workers }

// Do evaluates task(0) .. task(n-1), running at most Workers of them at a
// time, and blocks until every started task has returned. If any tasks
// fail, Do returns the error of the lowest-indexed failure and stops
// dispatching further indexes (callers discard all results on error, so
// finishing the grid would be wasted work). Fail-fast does not cost
// determinism: indexes are dispatched in increasing order, so by the time
// any failure is observed every lower index has already been dispatched —
// the lowest-indexed failing task therefore always runs, and it is the
// error reported regardless of goroutine interleaving.
func (p *WorkerPool) Do(n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p.workers == 1 || n == 1 {
		// Inline serial path: no goroutines, so the run is serial in the
		// strongest sense (same goroutine, same stack, same scheduling).
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var failed atomic.Bool
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := task(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
