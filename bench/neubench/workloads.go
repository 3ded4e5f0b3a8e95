package main

import (
	"fmt"
	"math/rand"

	"neummu/internal/serve"
)

// request is one HTTP call a workload makes: the endpoint plus the
// sweep-shaped payload. The traced run expands the same payload in-process
// through serve.ExpandSweep, so both paths simulate exactly the same cells.
type request struct {
	path  string // "/v1/sim" or "/v1/sweep"
	req   serve.SweepRequest
	cells int // cells the response carries
}

// plan is one workload instantiated for a seed and size.
type plan struct {
	prep  []request // untimed, once per run: fills the store each round boots on
	prime []request // sent after every boot; counted in setup_s
	round []request // the closed-loop list every round sends
	trace []request // the cells the traced run replays in-process
	// diskOnly marks workloads whose every cell must be answered from the
	// store; a simulated cell fails the round.
	diskOnly bool
	// flags are passed to neuserve on top of its defaults.
	flags []string
}

func (p plan) cellsPerRound() int {
	n := 0
	for _, r := range p.round {
		n += r.cells
	}
	return n
}

type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text
	// build instantiates the workload. The seed picks the cells and their
	// order; neuserve only ever sees the generated requests.
	build func(rng *rand.Rand, smoke bool) plan
}

var allWorkloads = []workload{
	{"dense-cold", "fig 8/10/11 design-space cells, each a cache miss on a fresh process, so the simulator layers do nearly all the work", denseCold},
	{"decode-cold", "TF-2 KV-streaming decode: millions of translations per cell with a 2% TLB hit rate, so core, tlb and walker dominate", decodeCold},
	{"warm-hits", "Zipf repeats of primed cells as four-cell sweeps: HTTP, cell hashing, the LRU cache and JSON do all the work and the simulator none", warmHits},
	{"disk-warm", "restart on a filled store and replay it as 40-cell sweeps: the store read path (scan, read, CRC, decode) does the work", diskWarm},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have dense-cold, decode-cold, warm-hits, disk-warm)", name)
}

// mmu is one point on the MMU axis. ptws == 0 keeps the custom defaults.
type mmu struct {
	kind       string
	ptws, prmb int
}

func simReq(model string, batch int, page string, m mmu, e *serve.WireEffort) request {
	r := serve.SweepRequest{
		Models: []string{model}, Batches: []int{batch},
		MMUs: []string{m.kind}, PageSizes: []string{page}, Effort: e,
	}
	if m.ptws > 0 {
		r.PTWs, r.PRMBSlots = []int{m.ptws}, []int{m.prmb}
	}
	return request{path: "/v1/sim", req: r, cells: 1}
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

var denseModels = []string{"CNN-1", "CNN-2", "CNN-3", "RNN-1", "RNN-2", "RNN-3"}

// denseCold sends two MMU points for every (model, batch, page size) of the
// paper's dense population at default effort (exact, repeat_cap 3), so each
// of the 8 MMU points appears equally often. The cell set is fixed and the
// seed picks the order: cell cost depends on the model and batch and on how
// they combine with the MMU point, and letting the seed pick the pairs moved
// the work per round by 6% from seed to seed.
func denseCold(rng *rand.Rand, smoke bool) plan {
	type combo struct {
		model string
		batch int
		page  string
	}
	var combos []combo
	mmus := []mmu{{"iommu", 0, 0}, {"neummu", 0, 0}}
	if smoke {
		combos = []combo{{"RNN-2", 1, "4KB"}, {"RNN-2", 4, "2MB"}}
	} else {
		for _, m := range denseModels {
			for _, b := range []int{1, 4, 8} {
				for _, ps := range []string{"4KB", "2MB"} {
					combos = append(combos, combo{m, b, ps})
				}
			}
		}
		for _, ptws := range []int{16, 64, 256} {
			for _, prmb := range []int{4, 16} {
				mmus = append(mmus, mmu{"custom", ptws, prmb})
			}
		}
	}
	var reqs []request
	for i, cb := range combos {
		for _, k := range []int{i % len(mmus), (i + len(mmus)/2) % len(mmus)} {
			reqs = append(reqs, simReq(cb.model, cb.batch, cb.page, mmus[k], nil))
		}
	}
	shuffle(rng, reqs)
	return plan{round: reqs, trace: reqs}
}

// decodeCold sends TF-2 batch-1 decode cells at repeat_cap 1 on the default
// (monolithic) engine; the seed picks their order. Larger batches cost
// 2-5x more per cell than a run's time budget allows. Priming the oracle
// cell builds the plan, snapshot and oracle baseline the others share, so
// each timed cell pays for its own MMU's run rather than for whichever
// shared baseline its place in the order made it wait on.
//
// neuserve runs with one scheduler shard here. By default a cell's shard is
// its hash under a seed each process draws at random, so whether the two
// callers' cells of a four-cell round run side by side or one after the
// other is a coin toss per process, and round throughput swung by 2x. The
// other workloads run the default, where enough cells per round average
// the draw out.
func decodeCold(rng *rand.Rand, smoke bool) plan {
	e := &serve.WireEffort{RepeatCap: 1}
	mmus := []mmu{{"iommu", 0, 0}, {"neummu", 0, 0}, {"custom", 32, 32}, {"custom", 512, 32}}
	if smoke {
		e.TileCap = 2
		mmus = []mmu{{"neummu", 0, 0}, {"custom", 32, 32}}
	}
	var reqs []request
	for _, m := range mmus {
		reqs = append(reqs, simReq("TF-2", 1, "4KB", m, e))
	}
	shuffle(rng, reqs)
	prime := []request{simReq("TF-2", 1, "4KB", mmu{kind: "oracle"}, e)}
	return plan{prime: prime, round: reqs, trace: reqs, flags: []string{"-shards", "1"}}
}

// warmHits primes cheap cells after each boot, then sends Zipf(1.1)
// repeats of them, so every timed cell is a cache hit. Each request is a
// four-cell sweep, one model and batch at every MMU kind. With single-cell
// requests, throughput's quartile spread over 10 seeds was 16-22% in three
// sets of runs, against 8-16% in six sets of four-cell ones, which put more of
// each request's time into serve's own hashing, cache and encoding, the
// code this workload exists to measure, and less into the loopback trip.
func warmHits(rng *rand.Rand, smoke bool) plan {
	e := &serve.WireEffort{RepeatCap: 1, TileCap: 1}
	models, batches, reqs := []string{"CNN-1", "CNN-2", "RNN-1", "RNN-2"}, []int{1, 4}, 10000
	if smoke {
		models, batches, reqs = []string{"RNN-1", "RNN-2"}, []int{1}, 125
	}
	kinds := []string{"oracle", "iommu", "neummu", "custom"}
	var grids []request
	for _, m := range models {
		for _, b := range batches {
			grids = append(grids, request{path: "/v1/sweep", cells: len(kinds), req: serve.SweepRequest{
				Models: []string{m}, Batches: []int{b}, PageSizes: []string{"4KB"}, MMUs: kinds, Effort: e,
			}})
		}
	}
	shuffle(rng, grids)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(grids)-1))
	round := make([]request, reqs)
	for i := range round {
		round[i] = grids[zipf.Uint64()]
	}
	return plan{prime: grids, round: round, trace: grids}
}

// diskWarm fills a store with custom-walker cells once per run, untimed;
// every round boots on a copy of it and replays the store's cells as
// 40-cell sweeps (one model, batch and page size; 8 PTW counts × 5 PRMB
// sizes) in seeded order.
func diskWarm(rng *rand.Rand, smoke bool) plan {
	e := &serve.WireEffort{RepeatCap: 1, TileCap: 4}
	models, batches, pages := denseModels, []int{1, 2, 4, 8}, []string{"4KB", "2MB"}
	ptws, prmbs := []int{8, 16, 32, 64, 128, 256, 512, 1024}, []int{1, 4, 8, 16, 32}
	if smoke {
		models, batches, pages = []string{"RNN-1", "RNN-2"}, []int{1}, []string{"4KB"}
		ptws, prmbs = []int{8, 16}, []int{1, 4}
	}
	var grids []request
	for _, m := range models {
		for _, b := range batches {
			for _, ps := range pages {
				grids = append(grids, request{path: "/v1/sweep", cells: len(ptws) * len(prmbs), req: serve.SweepRequest{
					Models: []string{m}, Batches: []int{b}, PageSizes: []string{ps},
					MMUs: []string{"custom"}, PTWs: ptws, PRMBSlots: prmbs, Effort: e,
				}})
			}
		}
	}
	round := append([]request(nil), grids...)
	shuffle(rng, round)
	return plan{prep: grids, round: round, trace: round[:min(2, len(round))], diskOnly: true}
}
