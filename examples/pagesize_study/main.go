// Page-size study: why large pages alone are no silver bullet (§VI-A).
//
// For dense CNNs/RNNs, 2 MB pages slash the number of page walks and
// nearly erase the baseline IOMMU's overhead. But for sparse embedding
// workloads under demand paging, each page fault must migrate a whole
// page over the interconnect — and a 2 MB migration to fetch a 256-byte
// embedding vector is catastrophic. This example measures both sides.
//
//	go run ./examples/pagesize_study
package main

import (
	"fmt"
	"log"

	"neummu"
)

func main() {
	fmt.Println("--- dense workload (CNN-1, batch 4): large pages help ---")
	fmt.Printf("%-10s %-8s %12s\n", "pages", "mmu", "norm perf")
	opts := neummu.Options{Effort: neummu.Effort{RepeatCap: 3}}
	for _, ps := range []neummu.PageSize{neummu.Page4K, neummu.Page2M} {
		o := opts
		o.PageSize = ps
		oracle, err := neummu.Simulate("CNN-1", 4, neummu.OracleMMU, o)
		if err != nil {
			log.Fatal(err)
		}
		for _, k := range []struct {
			name string
			kind neummu.MMUKind
		}{{"iommu", neummu.BaselineIOMMU}, {"neummu", neummu.ThroughputNeuMMU}} {
			r, err := neummu.Simulate("CNN-1", 4, k.kind, o)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-8s %12.4f\n", ps, k.name, r.NormalizedPerf(oracle))
		}
	}

	fmt.Println("\n--- sparse workload (NCF, batch 4, demand paging): large pages hurt ---")
	fmt.Printf("%-10s %-8s %14s %12s %16s\n", "pages", "mmu", "cycles", "faults", "migrated (KB)")
	for _, ps := range []neummu.PageSize{neummu.Page4K, neummu.Page2M} {
		for _, k := range []struct {
			name string
			kind neummu.MMUKind
		}{{"iommu", neummu.BaselineIOMMU}, {"neummu", neummu.ThroughputNeuMMU}} {
			r, err := neummu.SimulateSparse("NCF", 4, neummu.GatherDemandPaging, k.kind, ps)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-8s %14d %12d %16d\n",
				ps, k.name, r.Breakdown.Total(), r.Faults, r.MigratedBytes/1024)
		}
	}
	fmt.Println("\nA 2 MB migration to deliver a 256 B embedding wastes 8000x the")
	fmt.Println("interconnect traffic: robust small-page translation stays essential.")
}
