package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns Q1, median and Q3 by the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive"), so spreads
// printed here match a check made with that function. It needs at least
// two values; one value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// Verdicts of a same-session A/B comparison.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge applies the paired-run rule to one workload × metric. base[i] and
// head[i] were measured as pair i. A pair is a win for the side that reads
// better; ties count for neither side. A gain (or loss) is claimed only
// when that side wins at least nine tenths of all pairs and the medians
// differ by more than the base side's quartile gap. Otherwise a head
// median worse than the base median by more than bound (a share of the
// base median) is a regression, however noisy either side is; short of
// that, a run-to-run spread wider than bound leaves the metric
// unresolved, unless every head run reads better than every base run.
func judge(base, head []float64, lowerIsBetter bool, bound float64) (verdict string, winFrac float64, err error) {
	if len(base) != len(head) || len(base) == 0 {
		return "", 0, fmt.Errorf("need equal, non-empty pair lists (have %d base, %d head)", len(base), len(head))
	}
	better := func(a, b float64) bool { // a reads better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	wins, losses := 0, 0
	for i := range base {
		switch {
		case better(head[i], base[i]):
			wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	n := float64(len(base))
	winFrac = float64(wins) / n
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	resolved := math.Abs(hmed-bmed) > bq3-bq1
	switch {
	case float64(wins) >= 0.9*n && resolved && better(hmed, bmed):
		return improved, winFrac, nil
	case float64(losses) >= 0.9*n && resolved && better(bmed, hmed):
		return regressed, winFrac, nil
	}
	spread := math.Max(relSpread(bq1, bmed, bq3), relSpread(hq1, hmed, hq3))
	worse := (hmed - bmed) / math.Abs(bmed)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return regressed, winFrac, nil
	case spread > bound && !allBetter(head, base, better):
		return unresolved, winFrac, nil
	}
	return unchanged, winFrac, nil
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func allBetter(head, base []float64, better func(a, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return true
}
