package exp

import (
	"neummu/internal/core"
	"neummu/internal/embeddings"
	"neummu/internal/numa"
	"neummu/internal/vm"
)

// SteadyRow is one iteration of the steady-state demand-paging study: an
// extension beyond the paper's single-batch Figure 16 that shows how
// residency warms up across consecutive inference batches, and how the
// Mosaic-style mixed-page mode compares once hot regions are promoted.
type SteadyRow struct {
	Model     string
	Mode      numa.Mode
	Iteration int
	// GatherCycles is the embedding-gather latency of this batch;
	// Faults/MigratedKB are the batch's paging deltas.
	GatherCycles int64
	Faults       int64
	MigratedKB   int64
	Promotions   int64
}

// SteadyState runs several consecutive inference batches under plain 4 KB
// demand paging and under the Mosaic mixed-page extension.
func (h *Harness) SteadyState() ([]SteadyRow, error) {
	iters := 4
	batch := 16
	models := h.sparseModels()
	sys := numa.DefaultSystem()
	var rows []SteadyRow
	for _, cfg := range models {
		for _, mode := range []numa.Mode{numa.DemandPaging, numa.DemandPagingMosaic} {
			results, err := numa.RunIterations(cfg, batch, iters, mode, core.NeuMMU, vm.Page4K, sys)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				rows = append(rows, SteadyRow{
					Model:        cfg.Name,
					Mode:         mode,
					Iteration:    r.Iteration,
					GatherCycles: int64(r.Breakdown.EmbeddingLookup),
					Faults:       r.Faults,
					MigratedKB:   r.MigratedBytes / 1024,
					Promotions:   r.Promotions,
				})
			}
		}
	}
	return rows, nil
}

// OversubscriptionRow is one capacity point of the oversubscription study:
// the feature the paper's introduction says MMU-less NPUs cannot have at
// all ("nor can [they] oversubscribe the NPU memory").
type OversubscriptionRow struct {
	CapacityPages int64 // 0 = unbounded
	WarmGather    int64 // steady-state gather latency
	WarmFaults    int64
	Evictions     int64
}

// Oversubscription shrinks the local memory available to migrated pages
// and measures steady-state thrashing.
func (h *Harness) Oversubscription() ([]OversubscriptionRow, error) {
	cfg := embeddings.NCF()
	if h.opts.Effort.Quick() {
		cfg.Tables[1].LookupsPerSample = 64
	}
	capacities := []int64{0, 1024, 256, 64, 16}
	var rows []OversubscriptionRow
	for _, pages := range capacities {
		sys := numa.DefaultSystem()
		sys.LocalCapacity = pages * int64(vm.Page4K.Bytes())
		results, err := numa.RunIterations(cfg, 16, 3, numa.DemandPaging, core.NeuMMU, vm.Page4K, sys)
		if err != nil {
			return nil, err
		}
		warm := results[len(results)-1]
		var evictions int64
		for _, r := range results {
			evictions += r.Evictions
		}
		rows = append(rows, OversubscriptionRow{
			CapacityPages: pages,
			WarmGather:    int64(warm.Breakdown.EmbeddingLookup),
			WarmFaults:    warm.Faults,
			Evictions:     evictions,
		})
	}
	return rows, nil
}
