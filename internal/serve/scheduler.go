package serve

import (
	"errors"
	"runtime"
	"sync"
)

// ErrOverloaded is returned by Scheduler.Submit when the queue is full.
// The HTTP layer maps it to 429 Too Many Requests: the service sheds load
// at admission instead of queueing without bound.
var ErrOverloaded = errors.New("serve: scheduler queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// Scheduler is the job scheduler of the serving layer: one bounded FIFO
// queue drained by every worker, so no worker idles while a job waits.
// The bound is the service's admission control: a full queue rejects
// immediately rather than growing. Jobs need no key affinity — the cache
// deduplicates work for one key before it is ever submitted.
//
// The scheduler is the cross-request complement of sim.WorkerPool: the
// pool fans one study's grid out and joins it (batch semantics, used
// inside figure jobs via the exp harness), while the scheduler multiplexes
// many clients' cells onto a fixed worker budget with admission control.
// Neither ever threads a simulation — a job is one single-goroutine
// simulation or one figure study, exactly as in the batch engine.
type Scheduler struct {
	queue   chan func()
	workers int

	mu     sync.RWMutex // guards closed vs. in-flight Submit sends
	closed bool
	wg     sync.WaitGroup
}

// NewScheduler returns a scheduler with the given worker count and queue
// bound. workers <= 0 selects GOMAXPROCS; queueDepth <= 0 selects 256.
func NewScheduler(workers, queueDepth int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueDepth <= 0 {
		queueDepth = 256
	}
	s := &Scheduler{queue: make(chan func(), queueDepth), workers: workers}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				job()
			}
		}()
	}
	return s
}

// Submit enqueues job. It never blocks: a full queue returns
// ErrOverloaded, a closed scheduler returns ErrClosed.
func (s *Scheduler) Submit(job func()) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- job:
		return nil
	default:
		return ErrOverloaded
	}
}

// QueueDepth reports the number of queued (not yet running) jobs.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Workers reports the worker count.
func (s *Scheduler) Workers() int { return s.workers }

// Close stops admission, lets already-queued jobs drain, and waits for
// every worker to exit. The write lock excludes in-flight Submit sends,
// so closing the channel cannot race a send.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
