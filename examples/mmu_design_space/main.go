// MMU design-space exploration: how many walkers and merge slots does an
// NPU MMU need?
//
// This example sweeps the two NeuMMU provisioning knobs on one workload —
// pending-request-merging-buffer slots (with walkers fixed at the
// baseline 8) and then parallel walkers (with 32 merge slots) — and prints
// normalized performance plus translation energy, reproducing the method
// behind the paper's Figures 10, 11, and 12.
//
//	go run ./examples/mmu_design_space
package main

import (
	"fmt"
	"log"

	"neummu/internal/core"
	"neummu/internal/energy"
	"neummu/internal/exp"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/systolic"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

func main() {
	const model, batch = "RNN-1", 1
	m, err := workloads.ByName(model)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := workloads.BuildPlan(m, batch, workloads.DefaultTiles())
	if err != nil {
		log.Fatal(err)
	}

	run := func(mmu core.Config) *npu.Result {
		res, err := npu.Run(plan, npu.Config{
			MMU: mmu, Memory: memsys.Baseline(),
			Compute: systolic.Baseline(), RepeatCap: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	custom := func(ptws, slots int) core.Config {
		return exp.Point{Kind: core.Custom, PageSize: vm.Page4K,
			PTWs: ptws, PRMBSlots: slots, PTS: true, Path: walker.PathTPreg}.MMU()
	}

	oracle := run(core.ConfigFor(core.Oracle, vm.Page4K))
	costs := energy.Default45nm()
	fmt.Printf("workload %s b%02d — oracle: %d cycles\n\n", model, batch, oracle.Cycles)

	fmt.Println("PRMB slot sweep (8 walkers):")
	fmt.Printf("  %-6s %12s %14s %12s\n", "slots", "norm perf", "walks", "merges")
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		r := run(custom(8, s))
		fmt.Printf("  %-6d %12.4f %14d %12d\n",
			s, r.NormalizedPerf(oracle), r.Walker.WalksStarted, r.Walker.Merges)
	}

	fmt.Println("\nwalker sweep (32 merge slots):")
	fmt.Printf("  %-6s %12s %16s\n", "PTWs", "norm perf", "energy (nJ)")
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		r := run(custom(n, 32))
		e := energy.Translation(r, costs).Total() / 1000
		fmt.Printf("  %-6d %12.4f %16.1f\n", n, r.NormalizedPerf(oracle), e)
	}

	fmt.Println("\nThe knee lands around 128 walkers with 8-32 merge slots —")
	fmt.Println("the nominal NeuMMU configuration (§IV-B).")
}
