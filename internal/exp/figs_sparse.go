package exp

import (
	"neummu/internal/core"
	"neummu/internal/embeddings"
	"neummu/internal/numa"
	"neummu/internal/vm"
)

// Fig15Row is one bar of Figure 15: the latency breakdown of a
// recommendation inference under one remote-gather mode, normalized to the
// MMU-less baseline of the same workload/batch.
type Fig15Row struct {
	Model string
	Batch int
	Mode  numa.Mode
	// Normalized latency components (fractions of the baseline's total).
	Embedding, GEMM, Reduction, Else float64
	Total                            float64
}

// sparseBatches mirrors the paper's Figure 15 batch axis.
func (h *Harness) sparseBatches15() []int {
	if h.opts.Effort.Quick() {
		return []int{8}
	}
	return []int{1, 8, 64}
}

func (h *Harness) sparseModels() []embeddings.Config {
	if h.opts.Effort.Quick() {
		return []embeddings.Config{embeddings.NCF()}
	}
	return []embeddings.Config{embeddings.NCF(), embeddings.DLRM()}
}

// Fig15 evaluates the baseline CPU-staged copy against NUMA over PCIe and
// NUMA over an NVLink-class fabric for NCF and DLRM. Each (model, batch)
// cell is one engine task (three gather modes share the cell's baseline
// denominator), fanned out over the worker pool in grid order.
func (h *Harness) Fig15() ([]Fig15Row, error) {
	sys := numa.DefaultSystem()
	type cell struct {
		cfg   embeddings.Config
		batch int
	}
	var cells []cell
	for _, cfg := range h.sparseModels() {
		for _, b := range h.sparseBatches15() {
			cells = append(cells, cell{cfg, b})
		}
	}
	groups, err := runGrid(h, len(cells), func(i int) ([]Fig15Row, error) {
		cfg, b := cells[i].cfg, cells[i].batch
		base, err := numa.Run(cfg, b, numa.BaselineCopy, core.Oracle, vm.Page4K, sys)
		if err != nil {
			return nil, err
		}
		denom := float64(base.Breakdown.Total())
		var rows []Fig15Row
		for _, mode := range []numa.Mode{numa.BaselineCopy, numa.NUMASlow, numa.NUMAFast} {
			r := base
			if mode != numa.BaselineCopy {
				r, err = numa.Run(cfg, b, mode, core.NeuMMU, vm.Page4K, sys)
				if err != nil {
					return nil, err
				}
			}
			rows = append(rows, Fig15Row{
				Model: cfg.Name, Batch: b, Mode: mode,
				Embedding: float64(r.Breakdown.EmbeddingLookup) / denom,
				GEMM:      float64(r.Breakdown.GEMM) / denom,
				Reduction: float64(r.Breakdown.Reduction) / denom,
				Else:      float64(r.Breakdown.Else) / denom,
				Total:     float64(r.Breakdown.Total()) / denom,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig15Row
	for _, g := range groups {
		rows = append(rows, g...)
	}
	return rows, nil
}

// Fig16Row is one bar of Figure 16: demand-paged sparse inference under a
// page size and MMU, normalized to the oracular MMU on the same scenario.
type Fig16Row struct {
	Model    string
	Batch    int
	PageSize vm.PageSize
	MMU      core.Kind
	Perf     float64
}

// Fig16 evaluates demand paging with 4 KB and 2 MB pages under the
// baseline IOMMU and NeuMMU, each normalized to an oracular MMU running
// the identical demand-paged scenario (translation is free, migration is
// not).
func (h *Harness) Fig16() ([]Fig16Row, error) {
	sys := numa.DefaultSystem()
	batches := []int{1, 4, 8}
	if h.opts.Effort.Quick() {
		batches = []int{4}
	}
	type cell struct {
		cfg   embeddings.Config
		ps    vm.PageSize
		batch int
	}
	var cells []cell
	for _, cfg := range h.sparseModels() {
		for _, ps := range []vm.PageSize{vm.Page4K, vm.Page2M} {
			for _, b := range batches {
				cells = append(cells, cell{cfg, ps, b})
			}
		}
	}
	groups, err := runGrid(h, len(cells), func(i int) ([]Fig16Row, error) {
		cfg, ps, b := cells[i].cfg, cells[i].ps, cells[i].batch
		// Normalize against the small-page oracle: the paper's figure
		// shares one oracle baseline per workload/batch so the large-page
		// migration bloat shows up as lost performance rather than being
		// normalized away.
		oracle4k, err := numa.Run(cfg, b, numa.DemandPaging, core.Oracle, vm.Page4K, sys)
		if err != nil {
			return nil, err
		}
		var rows []Fig16Row
		for _, kind := range []core.Kind{core.IOMMU, core.NeuMMU} {
			r, err := numa.Run(cfg, b, numa.DemandPaging, kind, ps, sys)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig16Row{
				Model: cfg.Name, Batch: b, PageSize: ps, MMU: kind,
				Perf: float64(oracle4k.Breakdown.Total()) / float64(r.Breakdown.Total()),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig16Row
	for _, g := range groups {
		rows = append(rows, g...)
	}
	return rows, nil
}
