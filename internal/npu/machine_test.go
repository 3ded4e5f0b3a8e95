package npu

import (
	"reflect"
	"testing"

	"neummu/internal/core"
	"neummu/internal/dma"
	"neummu/internal/memsys"
	"neummu/internal/sim"
	"neummu/internal/systolic"
	"neummu/internal/vm"
	"neummu/internal/workloads"
)

// TestObserversForceMonolithic: observer studies need the single global
// timeline of the serial schedule, the one schedule every run takes, and
// attaching every observer must not perturb that machine: the observed
// result equals the unobserved run in every field but Timeline, and the
// observers see every translation and tile.
func TestObserversForceMonolithic(t *testing.T) {
	m := workloads.DenseSuite()[0]
	plan, err := workloads.BuildPlan(m, 2, workloads.DefaultTiles())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(core.NeuMMU)
	cfg.RepeatCap, cfg.TileCap = 2, 8
	want, err := Run(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	regions := plan.Space.Regions()
	watch := regions[len(regions)-1]
	var vas, tiles int
	cfg.TimelineWindow = 1 << 16
	cfg.TraceVAs = func(vm.VirtAddr, sim.Cycle) { vas++ }
	cfg.Watch = &watch
	cfg.TileTrace = func(string, int, dma.TileStats) { tiles++ }
	got, err := Run(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timeline == nil {
		t.Fatal("timeline observer dropped")
	}
	if int64(vas) != got.Translations || tiles != got.Tiles {
		t.Errorf("observers saw %d VAs and %d tiles, want %d and %d", vas, tiles, got.Translations, got.Tiles)
	}
	got.Timeline = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed run differs from the unobserved run:\n got  %+v\n want %+v", got, want)
	}
}

// recordingCompute logs the compute-phase duration of every tile it
// times, in schedule order.
type recordingCompute struct {
	ComputeModel
	cycles []sim.Cycle
}

func (r *recordingCompute) TileCycles(m, k, n int64) int64 {
	c := r.ComputeModel.TileCycles(m, k, n)
	r.cycles = append(r.cycles, sim.Cycle(c))
	return c
}

// TestMergeLaw checks the event-driven machine against the paper's
// double-buffer recurrence, replayed over the per-tile memory-phase
// durations (TileTrace) and compute-phase durations (TileCycles) it
// reported:
//
//	fetchStart[i]  = max(memEnd[i-1], computeDone[i-2])
//	memEnd[i]      = fetchStart[i] + D[i]
//	computeDone[i] = max(memEnd[i], computeDone[i-1]) + cc[i]
//
// The machine starts each fetch at exactly fetchStart[i], because its
// DMA serializes memory phases and its queue is idle between tiles, so
// the recurrence must reproduce its end, max(memEnd, computeDone), and
// its memory's last busy cycle must be the last memory-phase end.
func TestMergeLaw(t *testing.T) {
	for _, c := range goldenGrid() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			model, err := workloads.ByName(c.model)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := workloads.BuildPlan(model, c.batch, workloads.DefaultTiles())
			if err != nil {
				t.Fatal(err)
			}
			compute := &recordingCompute{ComputeModel: systolic.Baseline()}
			var mem []sim.Cycle
			res, err := Run(plan, Config{
				MMU:       goldenMMU(c.mmu, c.ps),
				Memory:    memsys.Baseline(),
				Compute:   compute,
				RepeatCap: 1,
				TileCap:   c.tileCap,
				TileTrace: func(_ string, _ int, ts dma.TileStats) { mem = append(mem, ts.Duration()) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(mem) != res.Tiles || len(compute.cycles) != res.Tiles {
				t.Fatalf("traced %d memory and %d compute phases, want %d tiles", len(mem), len(compute.cycles), res.Tiles)
			}
			var memEnd, done1, done2 sim.Cycle
			for i, d := range mem {
				memEnd = max(memEnd, done2) + d
				done1, done2 = max(memEnd, done1)+compute.cycles[i], done1
			}
			if cycles := max(memEnd, done1); cycles != res.Cycles || int64(cycles) != res.Counters.TotalCycles {
				t.Errorf("recurrence ends at %d, machine at %d (bundle %d)", cycles, res.Cycles, res.Counters.TotalCycles)
			}
			if memEnd != res.Memory.MaxOccupied {
				t.Errorf("recurrence's last memory-phase end %d, memory last busy at %d", memEnd, res.Memory.MaxOccupied)
			}
		})
	}
}
