// Command neusim runs one workload on one NPU/MMU configuration and
// prints the simulation summary, or sweeps a grid of workloads when given
// comma-separated values.
//
// Usage:
//
//	neusim -model CNN-1 -batch 4 -mmu neummu -pages 4KB
//	neusim -model RNN-3 -batch 1 -mmu iommu -tlb 512
//	neusim -model CNN-3 -batch 8 -mmu custom -ptws 128 -prmb 32 -tpreg
//	neusim -model TF-2 -batch 1 -mmu iommu -repeat-cap 3
//	neusim -model CNN-1,RNN-1,TF-1 -batches 1,4,8 -mmu iommu -parallel
//
// Workloads cover the paper's dense suite (CNN-1..3, RNN-1..3) and the
// post-paper transformer family (TF-1 BERT-base encoder, TF-2 GPT-2-style
// decoder with KV-cache streaming, TF-3 BERT-large at training batch).
//
// The -mmu flag selects oracle, iommu, neummu, or custom; custom builds
// the walker from the -ptws/-prmb/-tpreg flags, and -tlb sizes the TLB
// of every non-oracle kind. The flags are parsed and validated as the
// wire form of a design point (serve.WirePoint), so neusim accepts
// exactly the points neuserve does. A comma-separated
// -model or a -batches list switches to sweep mode: every (model, batch)
// cell runs on the design-space sweep engine, fanned out over all CPUs by
// default; -workers N bounds the pool and -workers 1 gives the serial
// reference run (the rows are identical at every count, in grid order).
//
// The -effort flag selects the unified effort API: exact (the default)
// simulates every cell in full, and quick shrinks a sweep's grid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"neummu/internal/core"
	"neummu/internal/exp"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/profiling"
	"neummu/internal/serve"
	"neummu/internal/spatial"
	"neummu/internal/systolic"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

func main() {
	var (
		model     = flag.String("model", "CNN-1", "workload(s): CNN-1..3, RNN-1..3, TF-1..3 (or alexnet, bert-base, ...); comma-separated list sweeps")
		batch     = flag.Int("batch", 1, "batch size")
		batches   = flag.String("batches", "", "comma-separated batch sizes; sweeps the grid (overrides -batch)")
		mmuKind   = flag.String("mmu", "neummu", "MMU: oracle, iommu, neummu, custom")
		pages     = flag.String("pages", "4KB", "page size: 4KB or 2MB")
		ptws      = flag.Int("ptws", 128, "custom: number of page-table walkers")
		prmb      = flag.Int("prmb", 32, "custom: PRMB mergeable slots per PTW")
		tpreg     = flag.Bool("tpreg", true, "custom: enable per-PTW translation path register")
		tlbSize   = flag.Int("tlb", 2048, "TLB entries")
		repeatCap = flag.Int("repeat-cap", 0, "cap simulated repeats per layer (0 = all)")
		tileCap   = flag.Int("tile-cap", 0, "cap simulated tiles per layer instance (0 = all)")
		effort    = flag.String("effort", "", "effort mode: exact, or quick (sweep mode); empty = exact")
		useSpat   = flag.Bool("spatial", false, "use the spatial-array compute model instead of systolic")
		compare   = flag.Bool("oracle-baseline", true, "also run the oracle and report normalized performance")
		asJSON    = flag.Bool("json", false, "emit the result as JSON instead of text")
		parallel  = flag.Bool("parallel", false, "sweep mode: fan cells out over all CPUs (the default; kept for explicitness)")
		workers   = flag.Int("workers", 0, "sweep mode: exact worker count (0 = all CPUs, 1 = serial reference)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (hot-path diagnosis)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile, "neusim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "neusim:", err)
		os.Exit(1)
	}
	defer stopProfiles()
	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "neusim:", err)
		os.Exit(1)
	}

	// The effort flags assemble the same unified exp.Effort the library and
	// service APIs take; validating here gives flag-shaped errors up front.
	eff := exp.Effort{Mode: *effort}
	if err := eff.Validate(); err != nil {
		fail(err)
	}

	models := strings.Split(*model, ",")
	for i := range models {
		models[i] = strings.TrimSpace(models[i])
	}
	if len(models) > 1 || *batches != "" {
		batchList, err := parseBatches(*batches, *batch)
		if err == nil {
			// Workers follows exp.Options semantics: 0 selects GOMAXPROCS,
			// 1 is the serial reference run. -parallel is an explicit alias
			// for -workers 0, so combining it with a bound is contradictory.
			if *parallel && *workers != 0 {
				fail(fmt.Errorf("-parallel (all CPUs) conflicts with -workers %d", *workers))
			}
			err = runSweep(models, batchList, *mmuKind, *pages, *ptws, *prmb,
				*tpreg, *tlbSize, *repeatCap, *tileCap, *workers, eff, *useSpat, *compare, *asJSON)
		}
		if err != nil {
			fail(err)
		}
		return
	}

	if eff.Mode == exp.EffortQuick {
		// Quick shrinks a sweep grid; a single cell has no grid to shrink.
		fail(fmt.Errorf("-effort quick applies to sweep mode only (give -batches or a comma-separated -model)"))
	}
	if *asJSON {
		if err := runJSON(*model, *batch, *mmuKind, *pages, *ptws, *prmb, *tpreg,
			*tlbSize, *repeatCap, *tileCap, *useSpat); err != nil {
			fail(err)
		}
		return
	}
	if err := run(*model, *batch, *mmuKind, *pages, *ptws, *prmb, *tpreg,
		*tlbSize, *repeatCap, *tileCap, *useSpat, *compare); err != nil {
		fail(err)
	}
}

func parseBatches(list string, fallback int) ([]int, error) {
	if list == "" {
		return []int{fallback}, nil
	}
	var out []int
	for _, s := range strings.Split(list, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || b <= 0 {
			return nil, fmt.Errorf("bad batch size %q", s)
		}
		out = append(out, b)
	}
	return out, nil
}

// cellPoint parses the MMU flags into the design point of one (model,
// batch) cell with the wire's own parser and validator.
func cellPoint(model string, batch int, mmuKind, pages string, ptws, prmb int,
	tpreg bool, tlbSize int) (exp.Point, error) {
	if tlbSize < 1 {
		return exp.Point{}, fmt.Errorf("-tlb must be at least 1 (got %d)", tlbSize)
	}
	w := serve.WirePoint{Kind: mmuKind, PageSize: pages, Model: model, Batch: batch}
	if mmuKind != "oracle" {
		w.TLBEntries = tlbSize
	}
	if mmuKind == "custom" {
		w.PTWs, w.PRMBSlots, w.PTS = ptws, prmb, true
		if tpreg {
			w.Path = walker.PathTPreg.String()
		}
	}
	return w.Point()
}

// sweepCell is the machine-readable row emitted by sweep mode with -json.
type sweepCell struct {
	Model          string  `json:"model"`
	Batch          int     `json:"batch"`
	MMU            string  `json:"mmu"`
	PageSize       string  `json:"page_size"`
	Cycles         int64   `json:"cycles"`
	Translations   int64   `json:"translations"`
	NormalizedPerf float64 `json:"normalized_perf"`
}

func runSweep(models []string, batchList []int, mmuKind, pages string, ptws, prmb int,
	tpreg bool, tlbSize, repeatCap, tileCap, workers int, eff exp.Effort, useSpatial, compare, asJSON bool) error {
	if useSpatial {
		return fmt.Errorf("-spatial is not supported in sweep mode (the engine normalizes against the systolic oracle)")
	}
	if !compare {
		return fmt.Errorf("-oracle-baseline=false is not supported in sweep mode (every row is oracle-normalized)")
	}
	var points []exp.Point
	for _, m := range models {
		for _, b := range batchList {
			p, err := cellPoint(m, b, mmuKind, pages, ptws, prmb, tpreg, tlbSize)
			if err != nil {
				return err
			}
			points = append(points, p)
		}
	}
	if repeatCap == 0 {
		// Match single-run semantics, where 0 means "simulate every
		// repeat": the harness would otherwise substitute its paper
		// default cap of 3, and npu treats any non-positive cap as
		// unlimited.
		repeatCap = -1
	}
	// The points name their models and batches, so the Options only carry
	// effort and parallelism knobs.
	eff.RepeatCap, eff.TileCap = repeatCap, tileCap
	h := exp.New(exp.Options{Workers: workers, Effort: eff})
	rows, err := h.SweepPoints(points)
	if err != nil {
		return err
	}
	cells := make([]sweepCell, len(rows))
	for i, r := range rows {
		cells[i] = sweepCell{
			Model: r.Point.Model, Batch: r.Point.Batch,
			MMU: r.Point.Kind.String(), PageSize: r.Point.PageSize.String(),
			Cycles:         int64(r.Result.Cycles),
			Translations:   r.Result.Translations,
			NormalizedPerf: r.Perf,
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cells)
	}
	fmt.Printf("%-10s %-6s %-8s %-6s %14s %14s %12s\n",
		"model", "batch", "mmu", "pages", "cycles", "translations", "norm. perf")
	sum := 0.0
	for _, c := range cells {
		fmt.Printf("%-10s b%-5d %-8s %-6s %14d %14d %12.4f\n",
			c.Model, c.Batch, c.MMU, c.PageSize, c.Cycles, c.Translations, c.NormalizedPerf)
		sum += c.NormalizedPerf
	}
	fmt.Printf("%-10s %-6s %-8s %-6s %14s %14s %12.4f\n",
		"average", "", "", "", "", "", sum/float64(len(cells)))
	return nil
}

// simulate runs one cell and, when withOracle is set, its oracle
// baseline (an oracle cell is its own baseline).
func simulate(p exp.Point, repeatCap, tileCap int, useSpatial, withOracle bool) (res, oracle *npu.Result, err error) {
	m, err := workloads.ByName(p.Model)
	if err != nil {
		return nil, nil, err
	}
	cfg := npu.Config{
		MMU:       p.MMU(),
		Memory:    memsys.Baseline(),
		Compute:   systolic.Baseline(),
		RepeatCap: repeatCap,
		TileCap:   tileCap,
	}
	if useSpatial {
		cfg.Compute = spatial.Baseline()
	}
	res, err = npu.RunModel(m, p.Batch, cfg)
	if err != nil || !withOracle {
		return res, nil, err
	}
	if p.Kind == core.Oracle {
		return res, res, nil
	}
	cfg.MMU = core.ConfigFor(core.Oracle, p.PageSize)
	oracle, err = npu.RunModel(m, p.Batch, cfg)
	return res, oracle, err
}

func run(model string, batch int, mmuKind, pages string, ptws, prmb int,
	tpreg bool, tlbSize, repeatCap, tileCap int, useSpatial, compare bool) error {
	p, err := cellPoint(model, batch, mmuKind, pages, ptws, prmb, tpreg, tlbSize)
	if err != nil {
		return err
	}
	res, oracle, err := simulate(p, repeatCap, tileCap, useSpatial, compare)
	if err != nil {
		return err
	}

	fmt.Printf("model            %s (batch %d)\n", res.Model, res.Batch)
	fmt.Printf("mmu              %s, %s pages\n", res.MMUKind, p.PageSize)
	fmt.Printf("compute          %s\n", res.Compute)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("  memory phases  %d\n", res.MemPhaseCycles)
	fmt.Printf("  compute phases %d\n", res.ComputeCycles)
	fmt.Printf("  issue stalls   %d\n", res.StallCycles)
	fmt.Printf("tiles            %d\n", res.Tiles)
	fmt.Printf("translations     %d\n", res.Translations)
	fmt.Printf("bytes fetched    %d\n", res.BytesFetched)
	fmt.Printf("page divergence  avg %.0f max %.0f per tile\n",
		res.PageDivergence.Mean(), res.PageDivergence.Max)
	if res.MMUKind == core.Oracle {
		return nil
	}
	fmt.Printf("TLB              %.1f%% hit (%d lookups)\n",
		100*res.TLB.HitRate(), res.TLB.Lookups)
	fmt.Printf("walks            %d started, %d redundant, %d merged\n",
		res.Walker.WalksStarted, res.Walker.RedundantWalks, res.Walker.Merges)
	fmt.Printf("walk DRAM reads  %d (%d levels skipped)\n",
		res.Walker.WalkMemAccesses, res.Walker.SkippedLevels)
	l4, l3, l2 := res.Path.Rates()
	fmt.Printf("path cache       L4 %.1f%%  L3 %.1f%%  L2 %.1f%%\n",
		100*l4, 100*l3, 100*l2)
	if oracle != nil {
		fmt.Printf("oracle cycles    %d\n", oracle.Cycles)
		fmt.Printf("normalized perf  %.4f (overhead %.2f%%)\n",
			res.NormalizedPerf(oracle), 100*res.Overhead(oracle))
	}
	return nil
}

// jsonResult is the machine-readable summary emitted by -json.
type jsonResult struct {
	Model           string  `json:"model"`
	Batch           int     `json:"batch"`
	MMU             string  `json:"mmu"`
	PageSize        string  `json:"page_size"`
	Compute         string  `json:"compute"`
	Cycles          int64   `json:"cycles"`
	MemPhaseCycles  int64   `json:"mem_phase_cycles"`
	ComputeCycles   int64   `json:"compute_cycles"`
	StallCycles     int64   `json:"stall_cycles"`
	Tiles           int     `json:"tiles"`
	Translations    int64   `json:"translations"`
	BytesFetched    int64   `json:"bytes_fetched"`
	PageDivAvg      float64 `json:"page_divergence_avg"`
	PageDivMax      float64 `json:"page_divergence_max"`
	TLBHitRate      float64 `json:"tlb_hit_rate"`
	Walks           int64   `json:"walks"`
	RedundantWalks  int64   `json:"redundant_walks"`
	Merges          int64   `json:"merges"`
	WalkMemAccesses int64   `json:"walk_mem_accesses"`
	SkippedLevels   int64   `json:"skipped_levels"`
	OracleCycles    int64   `json:"oracle_cycles"`
	NormalizedPerf  float64 `json:"normalized_perf"`
}

func runJSON(model string, batch int, mmuKind, pages string, ptws, prmb int,
	tpreg bool, tlbSize, repeatCap, tileCap int, useSpatial bool) error {
	p, err := cellPoint(model, batch, mmuKind, pages, ptws, prmb, tpreg, tlbSize)
	if err != nil {
		return err
	}
	res, oracle, err := simulate(p, repeatCap, tileCap, useSpatial, true)
	if err != nil {
		return err
	}
	out := jsonResult{
		Model: res.Model, Batch: res.Batch,
		MMU: res.MMUKind.String(), PageSize: p.PageSize.String(),
		Compute:         res.Compute,
		Cycles:          int64(res.Cycles),
		MemPhaseCycles:  int64(res.MemPhaseCycles),
		ComputeCycles:   int64(res.ComputeCycles),
		StallCycles:     int64(res.StallCycles),
		Tiles:           res.Tiles,
		Translations:    res.Translations,
		BytesFetched:    res.BytesFetched,
		PageDivAvg:      res.PageDivergence.Mean(),
		PageDivMax:      res.PageDivergence.Max,
		TLBHitRate:      res.TLB.HitRate(),
		Walks:           res.Walker.WalksStarted,
		RedundantWalks:  res.Walker.RedundantWalks,
		Merges:          res.Walker.Merges,
		WalkMemAccesses: res.Walker.WalkMemAccesses,
		SkippedLevels:   res.Walker.SkippedLevels,
		OracleCycles:    int64(oracle.Cycles),
		NormalizedPerf:  res.NormalizedPerf(oracle),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
