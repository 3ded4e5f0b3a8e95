package npu

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"neummu/internal/core"
	"neummu/internal/counters"
	"neummu/internal/embeddings"
	"neummu/internal/memsys"
	"neummu/internal/numa"
	"neummu/internal/sim"
	"neummu/internal/systolic"
	"neummu/internal/tlb"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// The golden cycle table pins the absolute simulated results of a fixed
// grid of cells: {CNN-1 b1, RNN-1 b4, TF-2 b1} × {oracle, iommu, neummu,
// custom 32 PTWs × 32 PRMB slots, custom 8 PTWs × 2 PRMB slots} × {4KB,
// 2MB}, on the serial schedule (the workers0 rows) and as cold epochs
// merged by assemble (the workers1 rows, named for the retired
// intra-cell worker count: the machinery sampled mode runs its subset
// on), plus full-schedule TF-2 anchors and NUMA gathers that route
// through dma.Engine.Router. A change to the host-side
// mechanics of the simulator (event scheduling, memory booking, buffer
// reuse) must leave every row unchanged; a deliberate model change
// re-records the table and says why.
//
// On a mismatch the test prints the observed row as a Go literal.

type goldenRow struct {
	name         string
	cycles       sim.Cycle
	memPhase     sim.Cycle
	stall        sim.Cycle
	translations int64
	tiles        int
	digest       uint64 // FNV-1a of the counters.Bundle's JSON
}

func (r goldenRow) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %#x},",
		r.name, r.cycles, r.memPhase, r.stall, r.translations, r.tiles, r.digest)
}

func bundleDigest(t *testing.T, b counters.Bundle) uint64 {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal counters: %v", err)
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// goldenMMU builds the MMU configurations of the table; custom mirrors
// neusim's -mmu custom -ptws 32 -prmb 32 (TPreg on, baseline TLB), and
// custom8x2 is Fig. 10's PRMB-2 point (8 PTWs, 2 slots, no path cache),
// where PRMBs overflow and the order of drained requests shows in the
// cycles.
func goldenMMU(kind string, ps vm.PageSize) core.Config {
	switch kind {
	case "custom8x2":
		return core.Config{
			Kind: core.Custom, PageSize: ps, TLB: tlb.Baseline(ps),
			Walker: walker.Config{
				NumPTWs: 8, PRMBSlots: 2, UsePTS: true, LevelLatency: 100,
				Path: walker.PathNone, PageSize: ps, DrainPerCycle: true,
			},
		}
	case "oracle":
		return core.ConfigFor(core.Oracle, ps)
	case "iommu":
		return core.ConfigFor(core.IOMMU, ps)
	case "neummu":
		return core.ConfigFor(core.NeuMMU, ps)
	}
	return core.Config{
		Kind: core.Custom, PageSize: ps, TLB: tlb.Baseline(ps),
		Walker: walker.Config{
			NumPTWs: 32, PRMBSlots: 32, UsePTS: true, LevelLatency: 100,
			Path: walker.PathTPreg, PageSize: ps, DrainPerCycle: true,
		},
	}
}

var goldenCells = []goldenRow{
	{"CNN-1/b1/custom/2MB/workers0", 1590272, 426932, 2718, 245503, 52, 0xa47dbffd2b7aa929},
	{"CNN-1/b1/custom/2MB/workers1", 1590272, 441875, 14052, 245503, 52, 0x31ce10bb53b505ce},
	{"CNN-1/b1/custom/4KB/workers0", 1590368, 432046, 9680, 245503, 52, 0x26189c7a851c3a17},
	{"CNN-1/b1/custom/4KB/workers1", 1590368, 446929, 23711, 245503, 52, 0x4f88f16a79b60de},
	{"CNN-1/b1/custom8x2/2MB/workers0", 1590272, 431029, 35040, 245503, 52, 0x7934d8932afbe485},
	{"CNN-1/b1/custom8x2/2MB/workers1", 1590272, 446252, 50185, 245503, 52, 0x5235ef4516e9e639},
	{"CNN-1/b1/custom8x2/4KB/workers0", 6225902, 6176879, 5925412, 245503, 52, 0xff57bf6f92673b2c},
	{"CNN-1/b1/custom8x2/4KB/workers1", 6225902, 6183379, 5931619, 245503, 52, 0xe29df1d0a7772dd},
	{"CNN-1/b1/iommu/2MB/workers0", 1590272, 431154, 33600, 245503, 52, 0x4e8404dde6d65ef3},
	{"CNN-1/b1/iommu/2MB/workers1", 1590272, 458958, 59815, 245503, 52, 0x7d2a06ff5710cfa5},
	{"CNN-1/b1/iommu/4KB/workers0", 12311245, 12272217, 11954592, 245503, 52, 0x8ebaf17a373d30c5},
	{"CNN-1/b1/iommu/4KB/workers1", 12311245, 12285128, 11967136, 245503, 52, 0xeada09c5310e1d4c},
	{"CNN-1/b1/neummu/2MB/workers0", 1590272, 426916, 172, 245503, 52, 0xdcc99bb8b372d10a},
	{"CNN-1/b1/neummu/2MB/workers1", 1590272, 441743, 8528, 245503, 52, 0xa6297c5139051fcf},
	{"CNN-1/b1/neummu/4KB/workers0", 1590368, 432046, 0, 245503, 52, 0x28937c564c166864},
	{"CNN-1/b1/neummu/4KB/workers1", 1590368, 446929, 0, 245503, 52, 0xcd58a2cc08964839},
	{"CNN-1/b1/oracle/2MB/workers0", 1589967, 425883, 0, 245503, 52, 0x1f0ede2acfe11a8d},
	{"CNN-1/b1/oracle/2MB/workers1", 1589967, 425883, 0, 245503, 52, 0x1f0ede2acfe11a8d},
	{"CNN-1/b1/oracle/4KB/workers0", 1589963, 425869, 0, 245503, 52, 0xe6679d1292cb6199},
	{"CNN-1/b1/oracle/4KB/workers1", 1589963, 425869, 0, 245503, 52, 0xe6679d1292cb6199},
	{"RNN-1/b4/custom/2MB/workers0", 118468, 42381, 268, 24255, 5, 0x44a8b0758310ce33},
	{"RNN-1/b4/custom/2MB/workers1", 118468, 43581, 1340, 24255, 5, 0x37794a8a0435c73f},
	{"RNN-1/b4/custom/4KB/workers0", 118564, 42960, 1065, 24255, 5, 0x410753e85359da99},
	{"RNN-1/b4/custom/4KB/workers1", 118564, 44077, 2107, 24255, 5, 0xa3f8cca7737ac66b},
	{"RNN-1/b4/custom8x2/2MB/workers0", 118474, 42387, 3504, 24255, 5, 0xde04186342055c73},
	{"RNN-1/b4/custom8x2/2MB/workers1", 118474, 43568, 4672, 24255, 5, 0xc9faee66ec19ffb4},
	{"RNN-1/b4/custom8x2/4KB/workers0", 632503, 610663, 585849, 24255, 5, 0xa7d390df1b0e38},
	{"RNN-1/b4/custom8x2/4KB/workers1", 632497, 610657, 585375, 24255, 5, 0x60221af5495a430},
	{"RNN-1/b4/iommu/2MB/workers0", 118480, 42393, 3360, 24255, 5, 0x31a8f13f0ac33a8b},
	{"RNN-1/b4/iommu/2MB/workers1", 118480, 43641, 4480, 24255, 5, 0xe2a082107c275692},
	{"RNN-1/b4/iommu/4KB/workers0", 1236150, 1214310, 1181820, 24255, 5, 0x9807cd343b7ff120},
	{"RNN-1/b4/iommu/4KB/workers1", 1236541, 1214701, 1181820, 24255, 5, 0x9e58ca913b7345e1},
	{"RNN-1/b4/neummu/2MB/workers0", 118468, 42381, 172, 24255, 5, 0x225f3182107eef36},
	{"RNN-1/b4/neummu/2MB/workers1", 118468, 43581, 860, 24255, 5, 0x76ab3fa95b9fb973},
	{"RNN-1/b4/neummu/4KB/workers0", 118564, 42960, 0, 24255, 5, 0x432ece54c5d00327},
	{"RNN-1/b4/neummu/4KB/workers1", 118564, 44077, 0, 24255, 5, 0x7e437991335a5691},
	{"RNN-1/b4/oracle/2MB/workers0", 118163, 42056, 0, 24255, 5, 0xdf45ec2763744e0},
	{"RNN-1/b4/oracle/2MB/workers1", 118163, 42056, 0, 24255, 5, 0xdf45ec2763744e0},
	{"RNN-1/b4/oracle/4KB/workers0", 118159, 42052, 0, 24255, 5, 0x587b93d063c53371},
	{"RNN-1/b4/oracle/4KB/workers1", 118159, 42052, 0, 24255, 5, 0x587b93d063c53371},
	{"TF-2/b1/custom/2MB/workers0", 3138745, 1105899, 3888, 629892, 204, 0xac21bca82b61c0ec},
	{"TF-2/b1/custom/2MB/workers1", 3145594, 1166020, 48240, 629892, 204, 0x3125b86de591c6e5},
	{"TF-2/b1/custom/4KB/workers0", 3140849, 1118313, 14466, 629892, 204, 0x3bd472c19d8bcb19},
	{"TF-2/b1/custom/4KB/workers1", 3147654, 1186548, 72470, 629892, 204, 0x7fa2b0a773d6517},
	{"TF-2/b1/custom8x2/2MB/workers0", 3139772, 1108968, 53436, 629892, 204, 0xf6e80cb887b4176e},
	{"TF-2/b1/custom8x2/2MB/workers1", 3146616, 1167586, 136346, 629892, 204, 0x966ad1dfcbf2b1db},
	{"TF-2/b1/custom8x2/4KB/workers0", 10923582, 9764676, 8900472, 629892, 204, 0x6b9a01bbf51693b2},
	{"TF-2/b1/custom8x2/4KB/workers1", 16208154, 15886620, 15185376, 629892, 204, 0x523bd1d6a865b165},
	{"TF-2/b1/iommu/2MB/workers0", 3139834, 1109062, 50960, 629892, 204, 0xccb6a26eef2cb3c6},
	{"TF-2/b1/iommu/2MB/workers1", 3149637, 1177224, 143795, 629892, 204, 0xcbfecbd16f927f94},
	{"TF-2/b1/iommu/4KB/full", 30471546, 22829952, 17958720, 2843460, 876, 0xeb5b2116690d9ffd},
	{"TF-2/b1/iommu/4KB/workers0", 20109306, 18950400, 17958720, 629892, 204, 0xaa2e42dc71665d62},
	{"TF-2/b1/iommu/4KB/workers1", 31890762, 31569228, 30630288, 629892, 204, 0xc6d47220a8290ad1},
	{"TF-2/b1/neummu/2MB/workers0", 3138741, 1105887, 172, 629892, 204, 0x66dfd05ff8ea18f2},
	{"TF-2/b1/neummu/2MB/workers1", 3145590, 1166016, 30832, 629892, 204, 0x8a30be5658cdd191},
	{"TF-2/b1/neummu/4KB/workers0", 3140849, 1118313, 0, 629892, 204, 0x7085e4b186038f11},
	{"TF-2/b1/neummu/4KB/workers1", 3147654, 1186548, 0, 629892, 204, 0x71fe91c20f078a38},
	{"TF-2/b1/oracle/2MB/workers0", 3138270, 1103796, 0, 629892, 204, 0xe592b0cb4ecdec9c},
	{"TF-2/b1/oracle/2MB/workers1", 3138270, 1103796, 0, 629892, 204, 0xe592b0cb4ecdec9c},
	{"TF-2/b1/oracle/4KB/full", 13500174, 4980120, 0, 2843460, 876, 0x52d4dbcd4ff3c9d0},
	{"TF-2/b1/oracle/4KB/workers0", 3137934, 1103928, 0, 629892, 204, 0xc5e31f06dc7e173a},
	{"TF-2/b1/oracle/4KB/workers1", 3137934, 1103928, 0, 629892, 204, 0xc5e31f06dc7e173a},
}

var goldenNUMA = []goldenRow{
	{"NCF/b8/numa-fast/iommu", 9430, 6784, 0, 264, 2, 0xeefe37cd0332bdca},
	{"NCF/b8/numa-fast/neummu", 4155, 1509, 0, 264, 2, 0x1af14526fe1f8de4},
	{"NCF/b8/numa-slow/iommu", 9531, 6885, 0, 264, 2, 0xeefe37cd0332bdca},
	{"NCF/b8/numa-slow/neummu", 7815, 5169, 0, 264, 2, 0x1af14526fe1f8de4},
}

type goldenCell struct {
	name    string
	model   string
	batch   int
	mmu     string
	ps      vm.PageSize
	tileCap int
	cold    bool // every epoch on its own cold machine (runAllCold)
}

func goldenGrid() []goldenCell {
	var cells []goldenCell
	for _, engine := range []int{0, 1} {
		for _, m := range []struct {
			name           string
			batch, tileCap int
		}{{"CNN-1", 1, 0}, {"RNN-1", 4, 0}, {"TF-2", 1, 8}} {
			for _, kind := range []string{"oracle", "iommu", "neummu", "custom", "custom8x2"} {
				for _, ps := range []vm.PageSize{vm.Page4K, vm.Page2M} {
					cells = append(cells, goldenCell{
						name:  fmt.Sprintf("%s/b%d/%s/%s/workers%d", m.name, m.batch, kind, ps, engine),
						model: m.name, batch: m.batch, mmu: kind, ps: ps,
						tileCap: m.tileCap, cold: engine == 1,
					})
				}
			}
		}
	}
	// The full TF-2 decode schedule: the anchor cells every committed
	// TF-2 figure and benchmark row derives from.
	for _, kind := range []string{"oracle", "iommu"} {
		cells = append(cells, goldenCell{
			name:  fmt.Sprintf("TF-2/b1/%s/4KB/full", kind),
			model: "TF-2", batch: 1, mmu: kind, ps: vm.Page4K,
		})
	}
	return cells
}

func TestGoldenCycleTable(t *testing.T) {
	want := make(map[string]goldenRow, len(goldenCells))
	for _, r := range goldenCells {
		want[r.name] = r
	}
	for _, c := range goldenGrid() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m, err := workloads.ByName(c.model)
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
			var res *Result
			if c.cold {
				res = runAllCold(t, m, c.batch, cfg)
			} else if res, err = RunModel(m, c.batch, cfg); err != nil {
				t.Fatal(err)
			}
			got := goldenRow{c.name, res.Cycles, res.MemPhaseCycles, res.StallCycles,
				res.Translations, res.Tiles, bundleDigest(t, res.Counters)}
			if got != want[c.name] {
				t.Errorf("golden row changed:\n got  %v\n want %v", got, want[c.name])
			}
		})
	}
}

// TestGoldenNUMAGather pins the recommendation case study's NUMA modes,
// whose embedding gathers reach remote memories through the DMA engine's
// Router. Its rows reuse the table's columns: cycles is the breakdown
// total, memPhase the embedding-lookup phase, and translations and tiles
// the DMA's transaction and tile counts.
func TestGoldenNUMAGather(t *testing.T) {
	want := make(map[string]goldenRow, len(goldenNUMA))
	for _, r := range goldenNUMA {
		want[r.name] = r
	}
	cfg := embeddings.NCF()
	cfg.Tables[1].LookupsPerSample = 32
	for _, mode := range []numa.Mode{numa.NUMASlow, numa.NUMAFast} {
		for _, kind := range []core.Kind{core.IOMMU, core.NeuMMU} {
			name := fmt.Sprintf("NCF/b8/%s/%s", mode, kind)
			res, err := numa.Run(cfg, 8, mode, kind, vm.Page4K, numa.DefaultSystem())
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRow{name, res.Breakdown.Total(), res.Breakdown.EmbeddingLookup, 0,
				res.Counters.DMATransactions, int(res.Counters.DMATiles), bundleDigest(t, res.Counters)}
			if got != want[name] {
				t.Errorf("golden row changed:\n got  %v\n want %v", got, want[name])
			}
		}
	}
}
