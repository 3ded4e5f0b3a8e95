package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"neummu/internal/core"
	"neummu/internal/npu"
	"neummu/internal/vm"
)

// TestOraclePointSimulatesOnce: an oracle point is the oracle baseline
// itself, so across oracle and MMU points in any order, at one or two
// workers, the harness simulates each (model, batch, page size) oracle
// exactly once. An oracle point reads perf exactly 1 and the memoized
// baseline's cycles; a zero page size is the 4 KB key.
func TestOraclePointSimulatesOnce(t *testing.T) {
	var points []Point
	for _, m := range []string{"CNN-1", "RNN-1"} {
		for _, p := range []Point{
			{Kind: core.Oracle, PageSize: vm.Page4K},
			{Kind: core.IOMMU, PageSize: vm.Page4K},
			{Kind: core.Oracle, PageSize: vm.Page2M},
			{Kind: core.NeuMMU, PageSize: vm.Page2M},
			{Kind: core.Oracle, PageSize: vm.Page4K},
			{Kind: core.Oracle},
		} {
			p.Model, p.Batch = m, 4
			points = append(points, p)
		}
	}
	const oracleKeys, mmuPoints = 4, 4
	rng := rand.New(rand.NewSource(3))
	for _, workers := range []int{1, 2} {
		for order := 0; order < 3; order++ {
			pts := append([]Point(nil), points...)
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			label := fmt.Sprintf("workers %d, order %d", workers, order)

			var mu sync.Mutex
			sims := map[core.Kind]int{}
			h := New(Options{Quick: true, Workers: workers, OnResult: func(res *npu.Result) {
				mu.Lock()
				sims[res.MMUKind]++
				mu.Unlock()
			}})
			rows, err := h.SweepPoints(pts)
			if err != nil {
				t.Fatal(err)
			}
			if oracles, others := sims[core.Oracle], sims[core.IOMMU]+sims[core.NeuMMU]; oracles != oracleKeys || others != mmuPoints {
				t.Fatalf("%s: %d oracle and %d MMU simulations for %d points, want %d and %d",
					label, oracles, others, len(pts), oracleKeys, mmuPoints)
			}
			for _, r := range rows {
				if r.Point.Kind != core.Oracle {
					continue
				}
				base, err := h.Oracle(r.Point.Model, r.Point.Batch, r.Point.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				if r.Perf != 1 || r.Result.Cycles != base.Cycles || r.Result != base {
					t.Fatalf("%s: %s perf %v, %d cycles; want 1 and the memoized baseline's %d",
						label, r.Point.Label(), r.Perf, r.Result.Cycles, base.Cycles)
				}
			}
		}
	}
}

// BenchmarkOraclePoint times one TF-2 b1 repeat_cap 1 oracle point on a
// fresh harness: the plan, the translation snapshot and the one oracle
// simulation behind it. It is the work a service does to answer its first
// oracle cell for a model, such as neubench decode-cold's priming
// request.
func BenchmarkOraclePoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New(Options{Models: []string{"TF-2"}, Batches: []int{1}, Effort: Effort{RepeatCap: 1}, Workers: 1})
		perf, _, err := h.NormPerf("TF-2", 1, core.Config{Kind: core.Oracle, PageSize: vm.Page4K})
		if err != nil || perf != 1 {
			b.Fatalf("oracle point: perf %v, err %v", perf, err)
		}
	}
}
