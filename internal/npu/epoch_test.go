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

func epochTestConfig(kind core.Kind) Config {
	return Config{
		MMU:       core.Config{Kind: kind, PageSize: vm.Page4K},
		Memory:    memsys.Baseline(),
		Compute:   systolic.Baseline(),
		RepeatCap: 2,
		TileCap:   8,
	}
}

func mustRunModel(t *testing.T, m workloads.Model, batch int, cfg Config) *Result {
	t.Helper()
	res, err := RunModel(m, batch, cfg)
	if err != nil {
		t.Fatalf("RunModel(%s): %v", m.Name, err)
	}
	return res
}

// runAllCold plans the model and runs every epoch on its own cold
// machine, merged with assemble: the machinery sampled mode runs on its
// subset, here over the whole population, so its totals and timeline can
// be pinned exactly.
func runAllCold(t *testing.T, m workloads.Model, batch int, cfg Config) *Result {
	t.Helper()
	plan, err := workloads.BuildPlan(m, batch, workloads.DefaultTiles())
	if err != nil {
		t.Fatal(err)
	}
	snap := BuildTranslations(plan, cfg.MMU.PageSize)
	runs, err := runCold(plan, cfg, snap, buildEpochs(plan, cfg.RepeatCap, cfg.TileCap))
	if err != nil {
		t.Fatalf("runCold(%s): %v", m.Name, err)
	}
	return assemble(plan, cfg, runs)
}

// TestEpochedMatchesMonolithicTotals: merged cold epochs are a distinct
// schedule semantics (cold per-epoch MMU state), but conserved
// quantities that do not depend on cross-epoch cache state — tiles,
// fetched bytes, DMA traffic — must agree exactly with the serial
// schedule, and the merged counter bundle must stay law-abiding.
func TestEpochedMatchesMonolithicTotals(t *testing.T) {
	m := workloads.TransformerEncoder("TF-TEST", 1, 256, 4, 1024, 512)
	mono := mustRunModel(t, m, 2, epochTestConfig(core.NeuMMU))
	epoched := runAllCold(t, m, 2, epochTestConfig(core.NeuMMU))
	if mono.Tiles != epoched.Tiles {
		t.Errorf("tiles: monolithic %d, epoched %d", mono.Tiles, epoched.Tiles)
	}
	if mono.BytesFetched != epoched.BytesFetched {
		t.Errorf("bytes: monolithic %d, epoched %d", mono.BytesFetched, epoched.BytesFetched)
	}
	if mono.Counters.DMATransactions != epoched.Counters.DMATransactions {
		t.Errorf("dma transactions: monolithic %d, epoched %d",
			mono.Counters.DMATransactions, epoched.Counters.DMATransactions)
	}
	if mono.ComputeCycles != epoched.ComputeCycles {
		t.Errorf("compute cycles: monolithic %d, epoched %d", mono.ComputeCycles, epoched.ComputeCycles)
	}
	if v := epoched.Counters.Violations(); v != nil {
		t.Errorf("epoched bundle violates laws: %v", v)
	}
	if epoched.Sampled != nil {
		t.Error("exact epoched run carries SampleStats")
	}
}

// TestEpochBuildCoversSchedule: every capped tile appears in exactly one
// epoch, in schedule order.
func TestEpochBuildCoversSchedule(t *testing.T) {
	for _, m := range append(workloads.DenseSuite(),
		workloads.TransformerEncoder("TF-TEST", 1, 256, 4, 1024, 512)) {
		plan, err := workloads.BuildPlan(m, 2, workloads.DefaultTiles())
		if err != nil {
			t.Fatal(err)
		}
		for _, caps := range []struct{ rep, tile int }{{0, 0}, {2, 8}} {
			eps := buildEpochs(plan, caps.rep, caps.tile)
			total := 0
			prevLayer := -1
			for _, ep := range eps {
				if ep.hi <= ep.lo {
					t.Fatalf("%s: empty epoch", m.Name)
				}
				if ep.layer < prevLayer {
					t.Fatalf("%s: epochs out of layer order", m.Name)
				}
				prevLayer = ep.layer
				total += ep.hi - ep.lo
			}
			want := 0
			for _, layer := range plan.Layers {
				times := layer.Times()
				if caps.rep > 0 && times > caps.rep {
					times = caps.rep
				}
				nt := len(layer.Tiles)
				if caps.tile > 0 && nt > caps.tile {
					nt = caps.tile
				}
				want += times * nt
			}
			if total != want {
				t.Errorf("%s caps=%+v: epochs cover %d tiles, want %d", m.Name, caps, total, want)
			}
		}
	}
}

// TestSampledSeededDeterminism: the same config must simulate the same
// subset and produce the identical result.
func TestSampledSeededDeterminism(t *testing.T) {
	m := workloads.TransformerEncoder("TF-TEST", 1, 256, 4, 1024, 2048)
	cfg := epochTestConfig(core.NeuMMU)
	cfg.Sampled = true
	cfg.SampleTargetCI = 0.05
	a := mustRunModel(t, m, 1, cfg)
	b := mustRunModel(t, m, 1, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("two sampled runs with identical config differ")
	}
	if a.Sampled == nil {
		t.Fatal("sampled run missing SampleStats")
	}
	if a.Sampled.Simulated <= 0 || a.Sampled.Simulated > a.Sampled.Population {
		t.Errorf("sample audit out of range: %+v", a.Sampled)
	}
}

// TestSampledEstimatesTrackExact: on a model whose epochs are
// homogeneous enough, the sampled cycle estimate must land within a
// loose factor of the same epochs all run cold, and the CI must be
// reported.
func TestSampledEstimatesTrackExact(t *testing.T) {
	m := workloads.TransformerEncoder("TF-TEST", 1, 256, 4, 1024, 2048)
	exact := runAllCold(t, m, 1, epochTestConfig(core.NeuMMU))
	cfg := epochTestConfig(core.NeuMMU)
	cfg.Sampled = true
	est := mustRunModel(t, m, 1, cfg)
	lo, hi := float64(exact.Cycles)*0.5, float64(exact.Cycles)*2
	if c := float64(est.Cycles); c < lo || c > hi {
		t.Errorf("sampled cycles %d not within 2x of exact %d", est.Cycles, exact.Cycles)
	}
	if est.Sampled.CyclesLo > est.Cycles || est.Sampled.CyclesHi < est.Cycles {
		t.Errorf("CI [%d, %d] does not bracket the estimate %d",
			est.Sampled.CyclesLo, est.Sampled.CyclesHi, est.Cycles)
	}
}

// TestSampledBundleLawAbiding: scaled counter bundles must satisfy every
// conservation law, across kinds and models.
func TestSampledBundleLawAbiding(t *testing.T) {
	models := append(workloads.DenseSuite(),
		workloads.TransformerEncoder("TF-TEST", 1, 256, 4, 1024, 512))
	for _, m := range models {
		for _, kind := range []core.Kind{core.Oracle, core.IOMMU, core.NeuMMU} {
			cfg := epochTestConfig(kind)
			cfg.Sampled = true
			res := mustRunModel(t, m, 2, cfg)
			if v := res.Counters.Violations(); v != nil {
				t.Errorf("%s/%v: scaled bundle violates laws: %v", m.Name, kind, v)
			}
		}
	}
}

// TestSampledSharesSampleWithOracle: the derived seed must not depend on
// the MMU kind, so oracle and candidate sample identical epochs.
func TestSampledSharesSampleWithOracle(t *testing.T) {
	m := workloads.TransformerEncoder("TF-TEST", 1, 256, 4, 1024, 2048)
	mk := func(kind core.Kind) *Result {
		cfg := epochTestConfig(kind)
		cfg.Sampled = true
		return mustRunModel(t, m, 1, cfg)
	}
	oracle, cand := mk(core.Oracle), mk(core.NeuMMU)
	if oracle.Sampled.Seed != cand.Sampled.Seed {
		t.Errorf("seed differs across kinds: oracle %d, candidate %d",
			oracle.Sampled.Seed, cand.Sampled.Seed)
	}
	if oracle.Sampled.Simulated != cand.Sampled.Simulated {
		t.Errorf("sample size differs across kinds: oracle %d, candidate %d",
			oracle.Sampled.Simulated, cand.Sampled.Simulated)
	}
}

// TestObserversForceMonolithic: observer-carrying configs must take the
// serial schedule on one machine even when sampled mode is requested —
// the observer contract is a single global timeline — and
// attaching every observer must not perturb that machine: the result
// equals the unobserved exact run in every field but Timeline.
func TestObserversForceMonolithic(t *testing.T) {
	m := workloads.DenseSuite()[0]
	exact := mustRunModel(t, m, 2, epochTestConfig(core.NeuMMU))
	cfg := epochTestConfig(core.NeuMMU)
	cfg.Sampled = true
	plan, err := workloads.BuildPlan(m, 2, workloads.DefaultTiles())
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
	if !reflect.DeepEqual(got, exact) {
		t.Errorf("observed run differs from the unobserved exact run (fell into cold epochs?):\n got  %+v\n want %+v", got, exact)
	}
}

// TestMergeLaw checks the assumption the epoch merge rests on against
// the machine's own counters: on one machine, the double-buffer
// recurrence over the per-tile durations it recorded reproduces its
// event-driven end, max(queue clock, last compute-done), and its memory's
// last busy cycle is the end of the last memory phase. Any divergence
// between a cold-epoch result and the exact one therefore comes from
// cold state alone.
func TestMergeLaw(t *testing.T) {
	for _, c := range goldenGrid() {
		if c.cold {
			continue
		}
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
			cfg := Config{
				MMU:       goldenMMU(c.mmu, c.ps),
				Memory:    memsys.Baseline(),
				Compute:   systolic.Baseline(),
				RepeatCap: 1,
				TileCap:   c.tileCap,
			}
			m := newMachine(plan, cfg, BuildTranslations(plan, c.ps))
			if err := eachEpoch(plan, cfg.RepeatCap, cfg.TileCap, m.run); err != nil {
				t.Fatal(err)
			}
			r := m.finish()
			cycles, lastMem := mergeTimeline([]*epochRun{r})
			if end := max(m.q.Now(), m.done1); cycles != end {
				t.Errorf("merged cycles %d, machine ended at %d", cycles, end)
			}
			if occ := m.mem.Stats().MaxOccupied; lastMem != occ {
				t.Errorf("merged last memory-phase end %d, memory last busy at %d", lastMem, occ)
			}
		})
	}
}
