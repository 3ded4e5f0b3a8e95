package exp

import (
	"fmt"
	"strings"
	"testing"
)

// tfFingerprint renders the three transformer studies to one string so
// serial and parallel runs can be compared byte-for-byte (the same
// golden-determinism contract the dense sweep engine holds).
func tfFingerprint(t *testing.T, workers int) string {
	t.Helper()
	h := New(Options{Effort: Effort{Mode: EffortQuick}, Workers: workers})
	var sb strings.Builder
	suite, err := h.TFSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range suite {
		fmt.Fprintf(&sb, "tfsuite %s b%02d io=%.12f neu=%.12f\n", r.Model, r.Batch, r.IOMMU, r.NeuMMU)
	}
	kv, err := h.KVCache()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "kvcache %s steps=%d kvbytes=%d peak=%d\n", kv.Model, kv.Steps, kv.KVBytes, kv.Timeline.Peak())
	for _, r := range kv.Rows {
		fmt.Fprintf(&sb, "kvcache step=%d ctx=%d txns=%d kvtxns=%d kvpages=%d pages=%d\n",
			r.Step, r.CtxTokens, r.Transactions, r.KVTransactions, r.KVPages, r.TilePages)
	}
	seq, err := h.SeqSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seq {
		fmt.Fprintf(&sb, "seqsweep %d io=%.12f neu=%.12f div=%.6f txns=%d\n",
			r.SeqLen, r.IOMMU, r.NeuMMU, r.PageDivergence, r.Translations)
	}
	return sb.String()
}

// TestTransformerStudiesDeterminism: the three beyond-the-paper studies
// must produce byte-identical rows at every worker count, like every
// other figure (the acceptance contract behind `paperfigs -fig tfsuite`
// / `-fig kvcache` serial-vs-parallel diffs in CI).
func TestTransformerStudiesDeterminism(t *testing.T) {
	serial := tfFingerprint(t, 1)
	if serial == "" {
		t.Fatal("empty serial fingerprint")
	}
	for _, workers := range []int{2, 8} {
		if got := tfFingerprint(t, workers); got != serial {
			t.Fatalf("workers=%d diverged from serial run:\nserial:\n%s\nparallel:\n%s",
				workers, serial, got)
		}
	}
}

// TestTFSuiteSanity: the transformer suite must reproduce the paper's
// qualitative result on the new workload class — the baseline IOMMU
// collapses, NeuMMU stays within a fraction of a percent of oracle.
func TestTFSuiteSanity(t *testing.T) {
	h := New(Options{Effort: Effort{Mode: EffortQuick}})
	rows, err := h.TFSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.IOMMU <= 0 || r.IOMMU > 0.6 {
			t.Errorf("%s b%d: IOMMU perf %.4f, want collapsed (0, 0.6]", r.Model, r.Batch, r.IOMMU)
		}
		if r.NeuMMU < 0.98 || r.NeuMMU > 1.0001 {
			t.Errorf("%s b%d: NeuMMU perf %.4f, want ≈1", r.Model, r.Batch, r.NeuMMU)
		}
	}
}

// TestKVCacheGrowth: the decode stream must attend one more token per
// step, and the KV region's distinct-page count must grow with it.
func TestKVCacheGrowth(t *testing.T) {
	h := New(Options{Effort: Effort{Mode: EffortQuick}})
	s, err := h.KVCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != s.Steps {
		t.Fatalf("%d rows for %d steps", len(s.Rows), s.Steps)
	}
	for i, r := range s.Rows {
		if r.CtxTokens != s.Rows[0].CtxTokens+i {
			t.Fatalf("step %d attends %d tokens, want %d", i, r.CtxTokens, s.Rows[0].CtxTokens+i)
		}
		if r.KVTransactions <= 0 || r.KVTransactions > r.Transactions {
			t.Fatalf("step %d: kv txns %d of %d", i, r.KVTransactions, r.Transactions)
		}
		if i > 0 && r.KVPages < s.Rows[i-1].KVPages {
			t.Fatalf("step %d: KV pages shrank %d -> %d", i, s.Rows[i-1].KVPages, r.KVPages)
		}
	}
	first, last := s.Rows[0], s.Rows[len(s.Rows)-1]
	if last.KVPages <= first.KVPages {
		t.Fatalf("KV stream did not grow: %d -> %d pages", first.KVPages, last.KVPages)
	}
	if s.Timeline == nil || s.Timeline.Peak() == 0 {
		t.Fatal("no burst timeline recorded")
	}
}

// TestSeqSweepAxes: rows must come back in ascending sequence order with
// translation demand growing along the axis.
func TestSeqSweepAxes(t *testing.T) {
	h := New(Options{Effort: Effort{Mode: EffortQuick}})
	rows, err := h.SeqSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SeqLen <= rows[i-1].SeqLen {
			t.Fatalf("seq axis out of order: %d after %d", rows[i].SeqLen, rows[i-1].SeqLen)
		}
		if rows[i].Translations <= rows[i-1].Translations {
			t.Fatalf("translations did not grow with sequence length: %d -> %d",
				rows[i-1].Translations, rows[i].Translations)
		}
	}
}
