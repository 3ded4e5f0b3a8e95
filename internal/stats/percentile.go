package stats

import (
	"math"
	"sort"
	"sync"
)

// This file holds the serving-layer aggregation helpers: exact percentiles
// over float64 samples and a concurrency-safe windowed latency recorder.
// The simulation side keeps its own machinery (Dist, TimeSeries) — these
// helpers exist for neuserve's /metrics endpoint and any other host-side
// measurement that wants p50/p95/p99 without bucket quantization.

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of samples using the
// nearest-rank method on a sorted copy: the smallest sample v such that at
// least ceil(q·n) samples are ≤ v. Empty input returns 0; q ≤ 0 returns
// the minimum and q ≥ 1 the maximum. The input slice is not modified.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return percentileSorted(sorted, q)
}

// Percentiles returns the nearest-rank quantiles for each q, sorting the
// samples once. Empty input yields all zeros.
func Percentiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = percentileSorted(sorted, q)
	}
	return out
}

// percentileSorted is the nearest-rank kernel over an already-sorted,
// non-empty slice.
func percentileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// LatencySummary is a point-in-time view of a Latency recorder.
//
// A summary with no observations is explicit about it: Mean, Max, and the
// percentiles are NaN, not zero — "zero latency" is a real (excellent)
// measurement, and an empty window must not masquerade as one on a
// dashboard. Use Valid (or Count > 0) before graphing; the serving
// layer's JSON view omits the NaN fields entirely.
type LatencySummary struct {
	// Count is the number of observations ever recorded (not just the
	// retained window).
	Count int64
	// Mean and Max are over all observations; the percentiles are over the
	// retained window (the most recent observations). All are NaN when no
	// samples exist.
	Mean float64
	Max  float64
	P50  float64
	P95  float64
	P99  float64
}

// Valid reports whether the summary has any observations (its float
// fields are numbers, not NaN placeholders).
func (s LatencySummary) Valid() bool { return s.Count > 0 }

// Latency is a concurrency-safe latency recorder: exact count/mean/max
// over everything ever recorded, plus p50/p95/p99 over a bounded window of
// the most recent observations (a ring buffer, so memory stays constant no
// matter how long the service runs).
type Latency struct {
	mu     sync.Mutex
	window []float64
	next   int
	filled bool
	count  int64
	sum    float64
	max    float64
}

// NewLatency returns a recorder retaining the most recent window
// observations for percentile estimation; window <= 0 selects 4096.
func NewLatency(window int) *Latency {
	if window <= 0 {
		window = 4096
	}
	return &Latency{window: make([]float64, window)}
}

// Record adds one observation (any unit; callers pick one and stick to it).
func (l *Latency) Record(v float64) {
	l.mu.Lock()
	l.count++
	l.sum += v
	if v > l.max {
		l.max = v
	}
	l.window[l.next] = v
	l.next++
	if l.next == len(l.window) {
		l.next = 0
		l.filled = true
	}
	l.mu.Unlock()
}

// Summary snapshots the recorder. With no observations every float field
// is NaN (see LatencySummary).
func (l *Latency) Summary() LatencySummary {
	l.mu.Lock()
	s := LatencySummary{Count: l.count, Max: l.max}
	if l.count > 0 {
		s.Mean = l.sum / float64(l.count)
	}
	n := l.next
	if l.filled {
		n = len(l.window)
	}
	retained := make([]float64, n)
	copy(retained, l.window[:n])
	l.mu.Unlock()
	if s.Count == 0 {
		nan := math.NaN()
		s.Mean, s.Max, s.P50, s.P95, s.P99 = nan, nan, nan, nan, nan
		return s
	}
	ps := Percentiles(retained, 0.50, 0.95, 0.99)
	s.P50, s.P95, s.P99 = ps[0], ps[1], ps[2]
	return s
}
