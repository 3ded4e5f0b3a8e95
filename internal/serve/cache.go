package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrComputePanic is the error a Flight resolves with when its winning
// compute closure panicked (e.g. died partway through disk-tier work).
// The recovered panic value is attached with %w wrapping. Like any other
// compute error it is not cached: joiners all observe it, and the next
// Resolve for the key starts a fresh computation.
var ErrComputePanic = errors.New("serve: compute panicked")

// Cache is the content-addressed result cache: a byte-size-bounded LRU
// over comparable struct keys, with in-flight deduplication. It follows
// the keying discipline of the exp harness memo — the key is a value
// struct describing the computation exhaustively, so two requests that
// mean the same work collide on the same entry without any string
// formatting — and adds what a long-running service needs on top of a
// memo: eviction (bounded memory) and instrumentation.
//
// Resolve is the only compute path. For a given key, concurrent callers
// observe exactly one of three outcomes, each counted separately:
//
//   - hit: the value is cached; returned immediately.
//   - join: another caller is already computing it; the returned Flight
//     shares that computation's result.
//   - miss: this caller owns the computation; the schedule callback is
//     invoked to run it (on the scheduler, in practice).
//
// The hit/join/miss counters are the service's "overlapping cells are
// simulated exactly once" evidence: misses equals the number of compute
// executions, no matter how many clients raced.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	size     func(V) int64
	ll       *list.List // front = most recently used
	entries  map[K]*list.Element
	inflight map[K]*Flight[V]

	hits, joins, misses, evictions, cancels int64
}

type cacheEntry[K comparable, V any] struct {
	key   K
	v     V
	bytes int64
}

// Flight is a pending or resolved cache computation. Wait blocks until
// the value is available and returns it; every joiner of the same flight
// gets the same value and error.
type Flight[V any] struct {
	done chan struct{}
	v    V
	err  error
	// Hit reports that the value came straight from the cache, with no
	// compute scheduled by anyone.
	Hit bool
	// waiters are the request contexts interested in this flight (the
	// owner's plus every joiner's), appended under the cache mutex. A
	// queued compute consults them at dequeue: if every waiter has gone
	// away the simulation is skipped entirely (see Cache.Resolve).
	waiters []context.Context
}

// abandoned reports that every context that asked for this flight has
// been cancelled. Called with the cache mutex held.
func (f *Flight[V]) abandoned() bool {
	for _, ctx := range f.waiters {
		if ctx.Err() == nil {
			return false
		}
	}
	return len(f.waiters) > 0
}

// Wait blocks until the flight resolves.
func (f *Flight[V]) Wait() (V, error) {
	<-f.done
	return f.v, f.err
}

// NewCache returns a cache bounded to maxBytes of cached values, as
// measured by size (which should include a fixed per-entry overhead
// estimate). maxBytes <= 0 selects 64 MiB.
func NewCache[K comparable, V any](maxBytes int64, size func(V) int64) *Cache[K, V] {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache[K, V]{
		maxBytes: maxBytes,
		size:     size,
		ll:       list.New(),
		entries:  make(map[K]*list.Element),
		inflight: make(map[K]*Flight[V]),
	}
}

// Resolve returns a Flight for key. On a miss it calls schedule with the
// closure that performs and publishes the computation; schedule must
// either arrange for the closure to run eventually and return nil, or
// return an error (e.g. ErrOverloaded) without running it — in which case
// the miss is rolled back and the error is returned. compute errors are
// not cached: they resolve the current flight (shared by its joiners) and
// the next Resolve starts fresh.
//
// ctx is the caller's interest in the result, not a deadline on the
// computation: when the closure reaches the front of the scheduler queue
// and every context registered on the flight (the owner's and all
// joiners') is already cancelled, the computation is skipped and the
// flight resolves with context.Canceled instead of simulating for nobody.
// A skip is treated like any other compute error — nothing is cached, so
// the next request for the key starts fresh.
func (c *Cache[K, V]) Resolve(ctx context.Context, key K, schedule func(run func()) error, compute func() (V, error)) (*Flight[V], error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		ent := el.Value.(*cacheEntry[K, V])
		c.mu.Unlock()
		return &Flight[V]{done: closedChan, v: ent.v, Hit: true}, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.joins++
		fl.waiters = append(fl.waiters, ctx)
		c.mu.Unlock()
		return fl, nil
	}
	fl := &Flight[V]{done: make(chan struct{}), waiters: []context.Context{ctx}}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	run := func() {
		// Dequeue gate: if everyone who wanted this cell has disconnected
		// while it sat in the queue, drop it instead of simulating. The
		// waiter list is checked under the same mutex join uses to append,
		// so a joiner either registered before the check (and keeps the
		// compute alive) or finds no inflight entry and starts afresh.
		c.mu.Lock()
		if fl.abandoned() {
			delete(c.inflight, key)
			c.cancels++
			c.mu.Unlock()
			fl.err = context.Canceled
			close(fl.done)
			return
		}
		c.mu.Unlock()
		v, err := protect(compute)
		fl.v, fl.err = v, err
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.add(key, v)
		}
		c.mu.Unlock()
		close(fl.done)
	}
	if err := schedule(run); err != nil {
		c.mu.Lock()
		delete(c.inflight, key)
		c.misses--
		c.mu.Unlock()
		// Joiners may already hold fl: resolve it with the scheduling
		// error so their Wait returns instead of blocking forever.
		fl.err = err
		close(fl.done)
		return nil, err
	}
	return fl, nil
}

// protect runs a compute closure, converting a panic into ErrComputePanic
// so a compute that dies partway (the disk tier put file I/O inside the
// closure) resolves its flight like any failed compute: joiners unblock
// with the error, nothing is cached, the inflight slot is released, and
// the scheduler worker that ran it survives to drain its queue.
func protect[V any](compute func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrComputePanic, r)
		}
	}()
	return compute()
}

// add inserts a computed value and evicts from the LRU tail until the
// byte bound holds again. Called with c.mu held.
func (c *Cache[K, V]) add(key K, v V) {
	if _, ok := c.entries[key]; ok {
		return // a racing insert won; keep it
	}
	ent := &cacheEntry[K, V]{key: key, v: v, bytes: c.size(v)}
	c.entries[key] = c.ll.PushFront(ent)
	c.curBytes += ent.bytes
	for c.curBytes > c.maxBytes && c.ll.Len() > 1 {
		tail := c.ll.Back()
		old := tail.Value.(*cacheEntry[K, V])
		c.ll.Remove(tail)
		delete(c.entries, old.key)
		c.curBytes -= old.bytes
		c.evictions++
	}
}

// CacheStats is an instrumentation snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits" prom:"cache_hits_total counter" help:"Cache lookups answered from a resident entry."`
	Joins     int64 `json:"joins" prom:"cache_joins_total counter" help:"Cache lookups that joined an in-flight computation."`
	Misses    int64 `json:"misses" prom:"cache_misses_total counter" help:"Cache lookups that owned a new computation."`
	Evictions int64 `json:"evictions" prom:"cache_evictions_total counter" help:"Entries evicted to hold the byte bound."`
	// Cancels counts queued computations dropped at dequeue because every
	// interested request had already disconnected.
	Cancels  int64 `json:"cancels" prom:"cache_cancels_total counter" help:"Queued computations dropped because every waiter disconnected."`
	Entries  int   `json:"entries" prom:"cache_entries gauge" help:"Entries resident in the cache."`
	Bytes    int64 `json:"bytes" prom:"cache_bytes gauge" help:"Bytes resident in the cache."`
	MaxBytes int64 `json:"max_bytes" prom:"cache_max_bytes gauge" help:"Cache byte bound."`
}

// HitRate returns the fraction of lookups served without a new
// computation (hits + joins over all lookups).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Joins + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Joins) / float64(total)
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Joins: c.joins, Misses: c.misses, Evictions: c.evictions,
		Cancels: c.cancels,
		Entries: len(c.entries), Bytes: c.curBytes, MaxBytes: c.maxBytes,
	}
}

// closedChan is the pre-resolved done channel shared by every cache hit.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()
