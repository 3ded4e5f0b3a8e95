package exp

import (
	"testing"

	"neummu/internal/core"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/systolic"
	"neummu/internal/vm"
	"neummu/internal/workloads"
)

// BenchmarkSeqCell8K times the largest cell of the seqsweep study: one
// 8K-token single-block BERT-base-shaped encoder at batch 1 on the
// NeuMMU, on the exact serial schedule. It is the straggler that pins one
// worker core while the rest of a sweep finishes.
//
// Run with
//
//	go test ./internal/exp -run '^$' -bench BenchmarkSeqCell8K -benchtime 3x
func BenchmarkSeqCell8K(b *testing.B) {
	m := workloads.TransformerEncoder("SEQ-8192", 1, 768, 12, 3072, 8192)
	plan, err := workloads.BuildPlan(m, 1, workloads.DefaultTiles())
	if err != nil {
		b.Fatal(err)
	}
	cfg := npu.Config{
		MMU:          core.ConfigFor(core.NeuMMU, vm.Page4K),
		Memory:       memsys.Baseline(),
		Compute:      systolic.Baseline(),
		Translations: npu.BuildTranslations(plan, vm.Page4K),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := npu.Run(plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles == 0 {
			b.Fatal("simulation returned zero cycles")
		}
	}
}
