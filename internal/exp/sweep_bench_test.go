package exp

import (
	"fmt"
	"runtime"
	"testing"

	"neummu/internal/core"
)

// Serial-vs-parallel wall-clock benchmarks for the sweep engine over the
// full dense suite (all six models × batches 1/4/8, the Figure 8 grid —
// 18 baseline-IOMMU simulations plus 18 memoized oracle baselines per
// iteration). RepeatCap/TileCap truncate per-layer work exactly as the
// harness's Quick mode does; the grid shape, and therefore the available
// parallelism, is the full suite's.
//
// Run with
//
//	go test ./internal/exp -bench BenchmarkDenseSuite -benchtime 3x
//
// At GOMAXPROCS >= 4 the parallel run completes the same 36 simulations
// at least 2× faster than the serial one (the cells are independent and
// embarrassingly parallel; only the memoized-cache locks are shared). At
// GOMAXPROCS = 1 the two are within noise of each other, which is itself
// the determinism story — parallelism changes wall-clock only.
func benchDenseSuite(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		// A fresh harness per iteration so every run pays the same plan
		// and oracle cost; otherwise the memoized caches would make all
		// iterations after the first nearly free.
		h := New(Options{Effort: Effort{RepeatCap: 2, TileCap: 8}, Workers: workers})
		rows, err := h.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 18 {
			b.Fatalf("suite has %d cells, want 18", len(rows))
		}
	}
}

func BenchmarkDenseSuiteSerial(b *testing.B)   { benchDenseSuite(b, 1) }
func BenchmarkDenseSuiteParallel(b *testing.B) { benchDenseSuite(b, 0) }

// BenchmarkSweepEngine measures the engine itself on a 3-axis cartesian
// product (2 PTW counts × 2 PRMB depths × the Quick-mode grid).
func BenchmarkSweepEngine(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := New(Options{Effort: Effort{Mode: EffortQuick}, Workers: workers})
				rows, err := h.Sweep(Axes{
					Kinds:     []core.Kind{core.Custom},
					PTWs:      []int{32, 128},
					PRMBSlots: []int{8, 32},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(rows)), "points")
			}
		})
	}
}
