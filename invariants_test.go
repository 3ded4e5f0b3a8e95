package neummu

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/npu"
	"neummu/internal/serve"
	"neummu/internal/vm"
)

// This file is the counter-based self-refutation suite (ROADMAP item 5,
// after CounterPoint's discipline): every simulation emits the audited
// bundle of internal/counters, and these tests cross-check it against
// analytical invariants that are independent of the simulator's event
// plumbing — conservation laws, exact decompositions, walk-depth
// arithmetic, the paper's published ratios. A change that silently breaks
// the memory model fails here with a named invariant, not a diffed byte.
//
// Layering: Bundle.Violations() holds the laws true of every drained
// simulation (checked on every bundle these tests touch); the stricter
// equalities that need run-shape knowledge (page size, workload class,
// MMU kind) are asserted here by name.

// auditBundle asserts the universal conservation laws on a bundle.
func auditBundle(t *testing.T, label string, b counters.Bundle) {
	t.Helper()
	if v := b.Violations(); v != nil {
		t.Errorf("%s: violated invariants: %s", label, strings.Join(v, "; "))
	}
}

// auditDense asserts the npu-strict laws: exact decompositions that hold
// for every dense-pipeline run (walk reads are modeled off the DRAM
// channels, the DMA is the only translation requester, and the result's
// headline scalars must mirror the bundle exactly).
func auditDense(t *testing.T, label string, res *Result, ps PageSize) {
	t.Helper()
	b := res.Counters
	auditBundle(t, label, b)
	check := func(name string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %s: got %d, want %d", label, name, got, want)
		}
	}
	// dram-decomposition: all DRAM traffic is DMA data traffic.
	check("dram-walk-reads-off-channel", b.DRAMWalkReads, 0)
	check("dram-accesses==dma-transactions", b.DRAMAccesses, b.DMATransactions)
	check("dram-bytes==dma-bytes", b.DRAMBytes, b.DMABytes)
	// dma-issue: the DMA engine is the only component issuing translations,
	// one per transaction.
	check("issued==transactions", b.TranslationsIssued, b.DMATransactions)
	check("transactions==result-translations", b.DMATransactions, res.Translations)
	// Headline scalars mirror the bundle.
	check("dma-bytes==bytes-fetched", b.DMABytes, res.BytesFetched)
	check("total-cycles==result-cycles", b.TotalCycles, int64(res.Cycles))
	check("dma-tiles==result-tiles", b.DMATiles, int64(res.Tiles))
	check("distinct-pages==divergence-sum", b.DMADistinctPages, int64(res.PageDivergence.Sum))
	// walk-depth: every walk reads one page-table node per level not
	// skipped by path caching (4 levels at 4KB, 3 at 2MB).
	levels := int64(ps.Levels())
	check("walk-depth", b.WalkDRAMReads, levels*b.WalksIssued-b.SkippedLevels)
	// No dense run may fault: the page tables are built up front.
	check("no-faults", b.Faults, 0)
}

// TestInvariantCountersConserveAcrossWorkloads runs the dense and
// transformer suites across MMU kinds and page sizes and audits every
// bundle against the conservation laws and the exact dense decompositions.
func TestInvariantCountersConserveAcrossWorkloads(t *testing.T) {
	models := []string{"CNN-1", "RNN-2", "TF-1", "TF-2"}
	kinds := []MMUKind{OracleMMU, BaselineIOMMU, ThroughputNeuMMU}
	sizes := []PageSize{Page4K, Page2M}
	opts := Options{Effort: Effort{RepeatCap: 2, TileCap: 6}}
	for _, model := range models {
		for _, kind := range kinds {
			for _, ps := range sizes {
				label := fmt.Sprintf("%s/%s/%s", model, kind, ps)
				opts.PageSize = ps
				res, err := Simulate(model, 4, kind, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				auditDense(t, label, res, ps)
				b := res.Counters
				// Non-oracle runs must exercise the TLB; oracle runs must
				// bypass it entirely.
				if kind == OracleMMU {
					if b.TLBLookups != 0 || b.OracleHits != b.TranslationsIssued {
						t.Errorf("%s: oracle run touched the TLB (%d lookups, %d oracle hits of %d issued)",
							label, b.TLBLookups, b.OracleHits, b.TranslationsIssued)
					}
				} else if b.TLBLookups == 0 || b.TLBMisses == 0 {
					t.Errorf("%s: run never exercised the TLB (lookups=%d misses=%d)",
						label, b.TLBLookups, b.TLBMisses)
				}
			}
		}
	}
}

// TestInvariantEveryFigureStudyAudited renders every registered figure
// with a counter auditor installed on the harness, so each study's
// simulations — including bespoke configs the figure functions build —
// pass through the conservation laws. The NUMA-based figures simulate
// through internal/numa rather than the npu pipeline; their bundles are
// audited by TestInvariantEmbeddingGatherCounters instead.
func TestInvariantEveryFigureStudyAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full quick figure registry")
	}
	var mu sync.Mutex
	audited := 0
	var violations []string
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, OnResult: func(res *npu.Result) {
		v := res.Counters.Violations()
		mu.Lock()
		audited++
		for _, s := range v {
			violations = append(violations, fmt.Sprintf("%s b%d %s: %s", res.Model, res.Batch, res.MMUKind, s))
		}
		mu.Unlock()
	}})
	for _, f := range figures.Registry() {
		if err := figures.Render(h, io.Discard, f.Name); err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
	}
	if len(violations) > 0 {
		t.Fatalf("figure studies violated invariants:\n  %s", strings.Join(violations, "\n  "))
	}
	if audited < 100 {
		t.Fatalf("only %d simulations audited across the registry; observer is not seeing the studies", audited)
	}
	t.Logf("audited %d simulations across %d figures", audited, len(figures.Registry()))
}

// TestInvariantEmbeddingGatherCounters audits the recommendation-system
// case study (§V): the gather path must satisfy the same conservation
// laws, and its DMA byte count must equal the analytically known gather
// footprint (every embedding vector moves through the engine exactly
// once in the NUMA and demand-paging modes).
func TestInvariantEmbeddingGatherCounters(t *testing.T) {
	for _, model := range SparseModels() {
		for _, mode := range []GatherMode{GatherNUMAFast, GatherDemandPaging} {
			label := fmt.Sprintf("%s/%v", model, mode)
			res, err := SimulateSparse(model, 32, mode, ThroughputNeuMMU, Page4K)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b := res.Counters
			auditBundle(t, label, b)
			if b.DMABytes != res.BytesGathered {
				t.Errorf("%s: DMA moved %d bytes, gather footprint is %d",
					label, b.DMABytes, res.BytesGathered)
			}
			if b.DRAMBytes != b.DMABytes {
				t.Errorf("%s: DRAM bytes %d != DMA bytes %d (migration must bypass the channels)",
					label, b.DRAMBytes, b.DMABytes)
			}
			if b.TranslationsIssued == 0 || b.TLBLookups == 0 {
				t.Errorf("%s: gather issued no translations through the MMU", label)
			}
			if mode == GatherDemandPaging {
				if b.Faults == 0 || res.MigratedBytes == 0 {
					t.Errorf("%s: cold demand-paged batch took %d faults, migrated %d bytes (want >0)",
						label, b.Faults, res.MigratedBytes)
				}
				if b.Retries != b.Faults {
					t.Errorf("%s: %d retries for %d faults (every fault resolves and retries)",
						label, b.Retries, b.Faults)
				}
			}
		}
		// The MMU-less baseline stages remote shards through the CPU:
		// only local gathers flow through the engine, as oracle
		// translations.
		res, err := SimulateSparse(model, 32, GatherBaselineCopy, OracleMMU, Page4K)
		if err != nil {
			t.Fatal(err)
		}
		b := res.Counters
		auditBundle(t, model+"/baseline", b)
		if b.OracleHits != b.TranslationsIssued {
			t.Errorf("%s/baseline: base+bound path must translate as oracle (%d of %d)",
				model, b.OracleHits, b.TranslationsIssued)
		}
		if b.DMABytes >= res.BytesGathered {
			t.Errorf("%s/baseline: engine moved %d bytes but remote shards are CPU-staged (gather footprint %d)",
				model, b.DMABytes, res.BytesGathered)
		}
	}
}

// TestInvariantPaperRatios pins the paper's qualitative claims in counter
// form: the PRMB merges same-page translation bursts (§IV-A), so NeuMMU
// walks DRAM far less than the merge-less IOMMU on the same workload, and
// the DMA's burst splitting issues several translations per touched page
// (§III-C — the premise of the whole design).
func TestInvariantPaperRatios(t *testing.T) {
	opts := Options{Effort: Effort{RepeatCap: 2, TileCap: 6}}
	io1, err := Simulate("CNN-1", 4, BaselineIOMMU, opts)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := Simulate("CNN-1", 4, ThroughputNeuMMU, opts)
	if err != nil {
		t.Fatal(err)
	}
	iob, nmb := io1.Counters, nm.Counters
	if nmb.PRMBMerges == 0 {
		t.Fatal("NeuMMU merged no requests; the PRMB is dead")
	}
	if float64(iob.WalkDRAMReads) <= 1.5*float64(nmb.WalkDRAMReads) {
		t.Errorf("IOMMU walk reads %d not >1.5x NeuMMU's %d: merging/path caching not reducing walk traffic",
			iob.WalkDRAMReads, nmb.WalkDRAMReads)
	}
	for label, b := range map[string]counters.Bundle{"iommu": iob, "neummu": nmb} {
		if b.DMATransactions <= b.DMADistinctPages {
			t.Errorf("%s: %d transactions for %d pages: burst splitting should issue several translations per page",
				label, b.DMATransactions, b.DMADistinctPages)
		}
	}
	// Same workload, same schedule: the MMU kind must not change the data
	// traffic, only the translation machinery's behavior.
	if iob.DMABytes != nmb.DMABytes || iob.DMATransactions != nmb.DMATransactions {
		t.Errorf("MMU kind changed data traffic: iommu %d B/%d txns vs neummu %d B/%d txns",
			iob.DMABytes, iob.DMATransactions, nmb.DMABytes, nmb.DMATransactions)
	}
}

// TestInvariantWalkDepthAcrossPageSizes pins the page-size arithmetic:
// 2MB pages cut the walk to 3 levels, so per-walk DRAM reads must drop
// accordingly (the large-page argument of §VI-A in counter form).
func TestInvariantWalkDepthAcrossPageSizes(t *testing.T) {
	opts := Options{Effort: Effort{RepeatCap: 2, TileCap: 6}}
	res4, err := Simulate("CNN-1", 4, BaselineIOMMU, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PageSize = Page2M
	res2, err := Simulate("CNN-1", 4, BaselineIOMMU, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ps  PageSize
		b   counters.Bundle
		lvl int64
	}{{Page4K, res4.Counters, 4}, {Page2M, res2.Counters, 3}} {
		if int64(vm.PageSize(c.ps).Levels()) != c.lvl {
			t.Fatalf("%s: expected %d levels", c.ps, c.lvl)
		}
		if c.b.WalksIssued > 0 && c.b.WalkDRAMReads != c.lvl*c.b.WalksIssued-c.b.SkippedLevels {
			t.Errorf("%s: %d walk reads for %d walks at %d levels (%d skipped)",
				c.ps, c.b.WalkDRAMReads, c.b.WalksIssued, c.lvl, c.b.SkippedLevels)
		}
	}
	if res2.Counters.WalksIssued >= res4.Counters.WalksIssued {
		t.Errorf("2MB pages issued %d walks, 4KB %d: larger pages must walk less",
			res2.Counters.WalksIssued, res4.Counters.WalksIssued)
	}
}

// TestInvariantServeSweepCountersConserve drives a sweep through the HTTP
// service and audits the wire: every NDJSON row carries a law-abiding
// bundle, the summary line is their exact sum, and /metrics aggregates
// the same totals.
func TestInvariantServeSweepCountersConserve(t *testing.T) {
	srv := NewServer(ServerConfig{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"models":["CNN-1"],"batches":[1,4],"mmus":["oracle","neummu"],"quick":true}`
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sweep answered %d", resp.StatusCode)
	}
	var rows []serve.CellRow
	var summary serve.SweepSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary":true`)) {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var row serve.CellRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || !summary.Summary {
		t.Fatalf("got %d rows, summary=%v", len(rows), summary.Summary)
	}
	var sum counters.Bundle
	for _, row := range rows {
		label := fmt.Sprintf("%s/%s/b%d", row.Model, row.MMU, row.Batch)
		auditBundle(t, label, row.Counters)
		if row.Counters.TranslationsIssued == 0 {
			t.Errorf("%s: row carries an empty counter bundle", label)
		}
		if row.MMU == "neummu" && row.Counters.TLBLookups == 0 {
			t.Errorf("%s: NeuMMU row has no TLB activity", label)
		}
		sum = sum.Add(row.Counters)
	}
	if summary.Counters != sum {
		t.Errorf("summary bundle is not the sum of the rows:\n  summary %+v\n  sum     %+v",
			summary.Counters, sum)
	}
	auditBundle(t, "summary", summary.Counters)

	// /metrics aggregates the same bundles (each cell simulated exactly
	// once on this fresh server).
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.SimCounters != sum {
		t.Errorf("/metrics sim_counters != sum of simulated cells:\n  metrics %+v\n  sum     %+v",
			m.SimCounters, sum)
	}
	auditBundle(t, "/metrics", m.SimCounters)
}
