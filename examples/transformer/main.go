// Transformer: the post-paper workload class on three MMU designs.
//
// The dense suite the paper evaluates stops at 2016-era CNNs and RNNs.
// Attention changes the translation picture twice over: encoder layers
// stream a dedicated key/value region per block, and autoregressive
// decoders re-read a *growing* KV-cache prefix on every generated token —
// a page-divergent, bursty access stream that is exactly what NeuMMU's
// merge-and-walk design targets. This example runs the BERT-base encoder
// (TF-1) and the GPT-2-style decoder (TF-2) under the oracle, the
// baseline IOMMU, and NeuMMU, then profiles the decoder's KV stream
// step by step.
//
//	go run ./examples/transformer
package main

import (
	"fmt"
	"log"

	"neummu"
)

func main() {
	// The effort caps keep this demo to seconds; ratios are unaffected
	// because every row is normalized against an oracle run of the same
	// truncated schedule.
	opts := neummu.Options{Effort: neummu.Effort{RepeatCap: 2, TileCap: 8}}

	fmt.Printf("%-8s %-22s %14s %12s\n", "model", "MMU", "cycles", "norm. perf")
	for _, model := range []string{"TF-1", "TF-2"} {
		oracle, err := neummu.Simulate(model, 1, neummu.OracleMMU, opts)
		if err != nil {
			log.Fatal(err)
		}
		iommu, err := neummu.Simulate(model, 1, neummu.BaselineIOMMU, opts)
		if err != nil {
			log.Fatal(err)
		}
		neu, err := neummu.Simulate(model, 1, neummu.ThroughputNeuMMU, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-22s %14d %12.4f\n", model, "oracle", oracle.Cycles, 1.0)
		fmt.Printf("%-8s %-22s %14d %12.4f\n", model, "baseline IOMMU", iommu.Cycles, iommu.NormalizedPerf(oracle))
		fmt.Printf("%-8s %-22s %14d %12.4f\n", model, "NeuMMU", neu.Cycles, neu.NormalizedPerf(oracle))
	}

	// The decoder's defining pattern: every decode step re-streams the
	// KV-cache prefix, one token longer each time. The harness's kvcache
	// study isolates that stream with a DMA watch on the KV region.
	h := neummu.NewHarness(neummu.HarnessOptions{Effort: neummu.Effort{Mode: neummu.EffortQuick}})
	study, err := h.KVCache()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s KV stream, first decoder block (%d KB region):\n",
		study.Model, study.KVBytes>>10)
	fmt.Printf("%-5s %-10s %12s %12s\n", "step", "ctx tokens", "kv txns", "kv pages")
	for _, r := range study.Rows {
		fmt.Printf("%-5d %-10d %12d %12d\n", r.Step, r.CtxTokens, r.KVTransactions, r.KVPages)
	}
	fmt.Printf("\nevery generated token re-reads the whole prefix: the stream grows\n")
	fmt.Printf("from %d to %d distinct pages per step — translation demand scales\n",
		study.Rows[0].KVPages, study.Rows[len(study.Rows)-1].KVPages)
	fmt.Printf("with sequence length even though compute per token is constant.\n")
}
