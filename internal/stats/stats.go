// Package stats provides the counters, distributions, and windowed time
// series the experiment harness uses to regenerate the paper's figures.
package stats

import (
	"fmt"
	"strings"
)

// Dist accumulates a scalar distribution (count/sum/min/max).
type Dist struct {
	N   int64
	Sum float64
	Min float64
	Max float64
}

// Add records one observation.
func (d *Dist) Add(v float64) {
	if d.N == 0 || v < d.Min {
		d.Min = v
	}
	if d.N == 0 || v > d.Max {
		d.Max = v
	}
	d.N++
	d.Sum += v
}

// Mean returns the average of the observations (0 if none).
func (d *Dist) Mean() float64 {
	if d.N == 0 {
		return 0
	}
	return d.Sum / float64(d.N)
}

// Merge folds other into d.
func (d *Dist) Merge(other Dist) {
	if other.N == 0 {
		return
	}
	if d.N == 0 {
		*d = other
		return
	}
	if other.Min < d.Min {
		d.Min = other.Min
	}
	if other.Max > d.Max {
		d.Max = other.Max
	}
	d.N += other.N
	d.Sum += other.Sum
}

func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.0f max=%.0f", d.N, d.Mean(), d.Min, d.Max)
}

// TimeSeries buckets event counts into fixed-width windows of simulated
// time. It reproduces Figure 7's "translations requested within 1000
// cycles" plots.
type TimeSeries struct {
	Window  int64
	buckets []int64
}

// NewTimeSeries returns a series with the given window width in cycles.
func NewTimeSeries(window int64) *TimeSeries {
	if window <= 0 {
		panic("stats: window must be positive")
	}
	return &TimeSeries{Window: window}
}

// Record adds n events at the given cycle.
func (ts *TimeSeries) Record(cycle int64, n int64) {
	if cycle < 0 {
		cycle = 0
	}
	idx := int(cycle / ts.Window)
	for len(ts.buckets) <= idx {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[idx] += n
}

// Buckets returns the per-window counts.
func (ts *TimeSeries) Buckets() []int64 { return ts.buckets }

// Peak returns the largest window count.
func (ts *TimeSeries) Peak() int64 {
	var p int64
	for _, b := range ts.buckets {
		if b > p {
			p = b
		}
	}
	return p
}

// BurstFraction returns the fraction of windows whose count is at least
// frac of the window width — i.e. windows where the requester was issuing
// nearly every cycle. It quantifies how bursty the translation traffic is.
func (ts *TimeSeries) BurstFraction(frac float64) float64 {
	if len(ts.buckets) == 0 {
		return 0
	}
	thresh := int64(frac * float64(ts.Window))
	n := 0
	for _, b := range ts.buckets {
		if b >= thresh {
			n++
		}
	}
	return float64(n) / float64(len(ts.buckets))
}

// Sparkline renders the series as a compact ASCII chart, one rune per
// window, for the trace-dump tools.
func (ts *TimeSeries) Sparkline(maxWidth int) string {
	if len(ts.buckets) == 0 {
		return ""
	}
	levels := []rune(" .:-=+*#%@")
	b := ts.buckets
	if maxWidth > 0 && len(b) > maxWidth {
		// Downsample by max within coarser windows.
		factor := (len(b) + maxWidth - 1) / maxWidth
		var ds []int64
		for i := 0; i < len(b); i += factor {
			var m int64
			for j := i; j < i+factor && j < len(b); j++ {
				if b[j] > m {
					m = b[j]
				}
			}
			ds = append(ds, m)
		}
		b = ds
	}
	peak := ts.Peak()
	if peak == 0 {
		peak = 1
	}
	var sb strings.Builder
	for _, v := range b {
		idx := int(float64(v) / float64(peak) * float64(len(levels)-1))
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}

// Ratio returns a/b, or 0 when b is 0. It is the common guard for the
// hit-rate computations scattered through the MMU stats.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
