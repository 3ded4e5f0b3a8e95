// Design-space sweep: explore the walker provisioning plane in one call.
//
// The paper's Figures 10-12 each walk one axis of the [PRMB slots, PTW
// count] plane. With the sweep engine the whole plane is a single
// cartesian product, evaluated in parallel over every CPU and returned as
// deterministically ordered rows — the same API every figure in
// EXPERIMENTS.md runs on.
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"
	"runtime"

	"neummu"
)

func main() {
	// 4 PTW counts × 3 PRMB depths × 2 models × 1 batch = 24 design
	// points. Each point is an independent simulation; the engine fans
	// them out over a bounded worker pool while sharing one memoized
	// oracle baseline per (model, batch, page size).
	axes := neummu.SweepAxes{
		Kinds:     []neummu.MMUKind{neummu.CustomMMU},
		Models:    []string{"CNN-1", "RNN-1"},
		Batches:   []int{4},
		PTWs:      []int{8, 32, 128, 512},
		PRMBSlots: []int{1, 8, 32},
		Paths:     []neummu.PathKind{neummu.PathTPreg},
	}
	rows, err := neummu.Sweep(axes, neummu.HarnessOptions{
		Effort:  neummu.Effort{RepeatCap: 2, TileCap: 8}, // truncate layers/tiles: ratios are unaffected
		Workers: 0,                                       // 0 = one worker per CPU; 1 reproduces the serial run exactly
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("swept %d design points on %d CPUs\n\n", len(rows), runtime.GOMAXPROCS(0))
	fmt.Printf("%-6s %-6s %10s %10s %12s %14s\n",
		"PTWs", "PRMB", "model", "batch", "norm. perf", "walks merged")
	for _, r := range rows {
		fmt.Printf("%-6d %-6d %10s b%-9d %12.4f %14d\n",
			r.Point.PTWs, r.Point.PRMBSlots, r.Point.Model, r.Point.Batch,
			r.Perf, r.Result.Walker.Merges)
	}

	// The rows arrive in grid order (PTWs outer, PRMB middle, model/batch
	// inner), so design-point aggregation is a plain slice walk.
	fmt.Printf("\n%-6s %-6s %12s\n", "PTWs", "PRMB", "avg perf")
	per := len(axes.Models) * len(axes.Batches)
	best, bestAvg := 0, 0.0
	for i := 0; i < len(rows); i += per {
		sum := 0.0
		for _, r := range rows[i : i+per] {
			sum += r.Perf
		}
		avg := sum / float64(per)
		fmt.Printf("%-6d %-6d %12.4f\n",
			rows[i].Point.PTWs, rows[i].Point.PRMBSlots, avg)
		if avg > bestAvg {
			best, bestAvg = i, avg
		}
	}
	p := rows[best].Point
	fmt.Printf("\nbest point: %d PTWs with %d-slot PRMBs (avg perf %.4f)\n",
		p.PTWs, p.PRMBSlots, bestAvg)
}
