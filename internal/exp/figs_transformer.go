package exp

// The transformer studies are the repository's first post-paper workload
// scenario: attention and KV-cache streaming stress the translation path
// with access patterns the 2016-era dense suite never produces. Three
// studies, indexed in EXPERIMENTS.md under "Beyond the paper":
//
//   - TFSuite  — the TF-1..TF-3 suite under IOMMU vs NeuMMU, normalized
//     to the oracle (the transformer analogue of Fig 8 + the summary).
//   - KVCache  — the decoder's KV stream across decode steps: per-step
//     transactions, distinct KV pages, and the translation-burst
//     timeline (the transformer analogue of Figs 6/7, isolated to the
//     KV region via the DMA watch).
//   - SeqSweep — the sequence-length axis 128→8K on a one-block encoder,
//     run on the parallel sweep engine.

import (
	"fmt"
	"strings"

	"neummu/internal/core"
	"neummu/internal/dma"
	"neummu/internal/npu"
	"neummu/internal/stats"
	"neummu/internal/tensor"
	"neummu/internal/vm"
	"neummu/internal/workloads"
)

// TFSuiteRow is one transformer workload cell: IOMMU and NeuMMU
// performance normalized to the oracle MMU at 4 KB pages.
type TFSuiteRow struct {
	Model  string
	Batch  int
	IOMMU  float64
	NeuMMU float64
}

// tfCells returns the transformer suite grid. TF-2 runs at batch 1 only
// (autoregressive decode is the latency-bound serving case); TF-3 runs at
// training-scale batch.
func (h *Harness) tfCells() []gridCell {
	if h.opts.Effort.Quick() {
		return []gridCell{{"TF-1", 1}, {"TF-2", 1}}
	}
	return []gridCell{{"TF-1", 1}, {"TF-1", 8}, {"TF-2", 1}, {"TF-3", 8}}
}

// TFSuite evaluates the transformer suite under the baseline IOMMU and
// NeuMMU, both normalized to the oracle, on the sweep engine's worker
// pool. Rows come back in grid order at every worker count.
func (h *Harness) TFSuite() ([]TFSuiteRow, error) {
	cells := h.tfCells()
	return runGrid(h, len(cells), func(i int) (TFSuiteRow, error) {
		c := cells[i]
		pIO, _, err := h.NormPerf(c.model, c.batch, core.ConfigFor(core.IOMMU, vm.Page4K))
		if err != nil {
			return TFSuiteRow{}, fmt.Errorf("%s b%02d iommu: %w", c.model, c.batch, err)
		}
		pNeu, _, err := h.NormPerf(c.model, c.batch, core.ConfigFor(core.NeuMMU, vm.Page4K))
		if err != nil {
			return TFSuiteRow{}, fmt.Errorf("%s b%02d neummu: %w", c.model, c.batch, err)
		}
		return TFSuiteRow{Model: c.model, Batch: c.batch, IOMMU: pIO, NeuMMU: pNeu}, nil
	})
}

// KVCacheRow profiles one decode step of the KV stream.
type KVCacheRow struct {
	Step      int
	CtxTokens int // tokens attended this step (past + generated so far)
	// Transactions counts the step's whole fetch and KVTransactions its
	// KV-region share (both measured by the DMA watch); KVPages is the
	// step's exact distinct-KV-page union; TilePages sums per-tile
	// distinct pages (exact per tile, so exact per step whenever a step
	// is a single tile).
	Transactions   int
	KVTransactions int
	KVPages        int
	TilePages      int
}

// KVCacheStudy is the decoder KV-stream profile: per-step rows plus the
// translation-burst timeline of the stream.
type KVCacheStudy struct {
	Model   string
	Steps   int
	KVBytes int64 // the watched KV region's allocated size
	Rows    []KVCacheRow
	// Timeline records translations issued per 1000-cycle window across
	// the whole decode run (the Fig 7 view of the KV stream).
	Timeline *stats.TimeSeries
}

// KVCache runs TF-2's first decoder block's attention layer in isolation
// under the oracle MMU (this is a translation-pattern study, like Figs
// 6/7) and attributes every tile fetch to its decode step. The DMA watch
// is pointed at the block's KV region, so the rows separate KV-stream
// traffic from query fetches. The study is a single sequential
// simulation and runs inline, independent of the worker pool.
func (h *Harness) KVCache() (*KVCacheStudy, error) {
	const model = "TF-2"
	plan, err := h.plan(model, 1)
	if err != nil {
		return nil, err
	}
	var layer workloads.PlannedLayer
	found := false
	for _, l := range plan.Layers {
		if strings.HasSuffix(l.Name, "/attn") {
			layer, found = l, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("kvcache: %s has no attention layer", model)
	}
	kvRegion, ok := plan.Space.Named(layer.Name + "/KV")
	if !ok {
		return nil, fmt.Errorf("kvcache: %s has no KV region", layer.Name)
	}

	steps := workloads.TF2DecodeSteps
	if h.opts.Effort.Quick() {
		steps = 12
	}
	var tiles []workloads.Tile
	for _, t := range layer.Tiles {
		if t.Step < steps {
			tiles = append(tiles, t)
		}
	}
	// The truncated plan shares the canonical plan's address space, so the
	// cached snapshot's mapping is valid for it (same trick as Fig14).
	truncated := &workloads.Plan{
		Model: plan.Model, Batch: plan.Batch,
		Layers: []workloads.PlannedLayer{{Name: layer.Name, Repeat: 1, Tiles: tiles}},
		Space:  plan.Space,
	}
	snap, err := h.translations(model, 1, vm.Page4K)
	if err != nil {
		return nil, err
	}

	cfg := h.npuConfig(core.Config{Kind: core.Oracle, PageSize: vm.Page4K})
	cfg.RepeatCap, cfg.TileCap = 0, 0 // step depth is set by the tile filter above
	cfg.TimelineWindow = 1000
	cfg.Translations = snap
	cfg.Watch = &kvRegion

	rows := make([]KVCacheRow, steps)
	cfg.TileTrace = func(_ string, step int, ts dma.TileStats) {
		r := &rows[step]
		r.Step = step
		r.CtxTokens = workloads.TF2PastTokens + step + 1
		r.Transactions += ts.Transactions
		r.KVTransactions += ts.WatchedTransactions
		r.TilePages += ts.DistinctPages
	}
	res, err := h.runNPU(truncated, cfg)
	if err != nil {
		return nil, err
	}
	// KVPages is computed from the plan's views rather than by summing
	// per-tile watched counts: a step split across several context blocks
	// shares a page at each block boundary, and only a per-step union
	// counts those once.
	pages := map[uint64]struct{}{}
	var segs []tensor.Segment
	for i, step := 0, 0; i <= len(tiles); i++ {
		if i == len(tiles) || tiles[i].Step != step {
			rows[step].KVPages = len(pages)
			clear(pages)
			if i == len(tiles) {
				break
			}
			step = tiles[i].Step
		}
		for _, v := range tiles[i].Views {
			if !strings.HasSuffix(v.T.Name, "/KV") {
				continue
			}
			segs = v.AppendSegments(segs[:0])
			for _, s := range segs {
				first := vm.PageNumber(s.VA, vm.Page4K)
				last := vm.PageNumber(s.End()-1, vm.Page4K)
				for p := first; p <= last; p++ {
					pages[p] = struct{}{}
				}
			}
		}
	}
	return &KVCacheStudy{
		Model: model, Steps: steps,
		KVBytes:  int64(kvRegion.Size),
		Rows:     rows,
		Timeline: res.Timeline,
	}, nil
}

// SeqSweepRow is one point of the sequence-length axis.
type SeqSweepRow struct {
	SeqLen int
	IOMMU  float64
	NeuMMU float64
	// PageDivergence and Translations are measured on the oracle run
	// (translation pattern is MMU-independent).
	PageDivergence float64
	Translations   int64
}

// SeqSweep runs a one-block BERT-base-shaped encoder across sequence
// lengths 128→8K at batch 1, IOMMU and NeuMMU normalized to the oracle.
// Each cell plans its own model (the length axis is outside the harness's
// ByName cache) and builds one private frozen snapshot shared by its
// three runs; cells fan out over the worker pool in deterministic grid
// order.
func (h *Harness) SeqSweep() ([]SeqSweepRow, error) {
	seqs := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	if h.opts.Effort.Quick() {
		seqs = []int{128, 512}
	}
	return runGrid(h, len(seqs), func(i int) (SeqSweepRow, error) {
		s := seqs[i]
		m := workloads.TransformerEncoder(fmt.Sprintf("SEQ-%d", s), 1, 768, 12, 3072, s)
		plan, err := workloads.BuildPlan(m, 1, workloads.DefaultTiles())
		if err != nil {
			return SeqSweepRow{}, fmt.Errorf("seq %d: %w", s, err)
		}
		snap := npu.BuildTranslations(plan, vm.Page4K)
		run := func(mmu core.Config) (*npu.Result, error) {
			cfg := h.npuConfig(mmu)
			cfg.Translations = snap
			return h.runNPU(plan, cfg)
		}
		oracle, err := run(core.Config{Kind: core.Oracle, PageSize: vm.Page4K})
		if err != nil {
			return SeqSweepRow{}, fmt.Errorf("seq %d: %w", s, err)
		}
		io, err := run(core.ConfigFor(core.IOMMU, vm.Page4K))
		if err != nil {
			return SeqSweepRow{}, fmt.Errorf("seq %d: %w", s, err)
		}
		neu, err := run(core.ConfigFor(core.NeuMMU, vm.Page4K))
		if err != nil {
			return SeqSweepRow{}, fmt.Errorf("seq %d: %w", s, err)
		}
		return SeqSweepRow{
			SeqLen:         s,
			IOMMU:          io.NormalizedPerf(oracle),
			NeuMMU:         neu.NormalizedPerf(oracle),
			PageDivergence: oracle.PageDivergence.Mean(),
			Translations:   oracle.Translations,
		}, nil
	})
}
