package exp

import (
	"neummu/internal/core"
	"neummu/internal/npu"
	"neummu/internal/spatial"
	"neummu/internal/systolic"
	"neummu/internal/vm"
)

// DataflowRow compares NPU compute organizations (§VI-B: "the implication
// of alternative NPU architectures and DNN dataflows on our MMU
// proposal"): weight-stationary systolic (TPU-style), output-stationary
// systolic, and the spatial vector-PE grid. The MMU story must hold for
// all of them, because all share the SPM-centric DMA path.
type DataflowRow struct {
	Dataflow string
	Model    string
	Batch    int
	IOMMU    float64
	NeuMMU   float64
}

// DataflowStudy evaluates the three compute organizations across the
// suite, normalizing each against its own oracle (the compute model
// changes the denominator too).
func (h *Harness) DataflowStudy() ([]DataflowRow, error) {
	computes := []npu.ComputeModel{
		systolic.Baseline(),
		systolic.OSBaseline(),
		spatial.Baseline(),
	}
	var rows []DataflowRow
	for _, cm := range computes {
		cm := cm
		group, err := gridRows(h, func(model string, batch int) (DataflowRow, error) {
			plan, err := h.plan(model, batch)
			if err != nil {
				return DataflowRow{}, err
			}
			snap, err := h.translations(model, batch, vm.Page4K)
			if err != nil {
				return DataflowRow{}, err
			}
			run := func(kind core.Kind) (*npu.Result, error) {
				cfg := h.npuConfig(core.ConfigFor(kind, vm.Page4K))
				cfg.Compute = cm
				cfg.Translations = snap
				return h.runNPU(plan, cfg)
			}
			oracle, err := run(core.Oracle)
			if err != nil {
				return DataflowRow{}, err
			}
			io, err := run(core.IOMMU)
			if err != nil {
				return DataflowRow{}, err
			}
			neu, err := run(core.NeuMMU)
			if err != nil {
				return DataflowRow{}, err
			}
			return DataflowRow{
				Dataflow: cm.Name(), Model: model, Batch: batch,
				IOMMU:  io.NormalizedPerf(oracle),
				NeuMMU: neu.NormalizedPerf(oracle),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, group...)
	}
	return rows, nil
}
