// Package neummu is the public API of the NeuMMU reproduction: a
// simulation library for studying address translation in scratchpad-based
// neural processing units, reproducing "NeuMMU: Architectural Support for
// Efficient Address Translations in Neural Processing Units" (Hyun et al.,
// ASPLOS 2020).
//
// The package exposes four layers:
//
//   - Simulate / SimulateSparse run one workload on one MMU configuration
//     and return cycle-accurate results (the quickstart path).
//   - Sweep evaluates a cartesian design space (MMU kind × page size ×
//     model × batch × walker knobs) on a bounded worker pool, returning
//     deterministically ordered rows (see examples/sweep).
//   - Harness regenerates every table and figure of the paper's
//     evaluation (see EXPERIMENTS.md for the full index); each figure is
//     itself a sweep on the same engine.
//   - The type aliases re-export the building blocks (MMU kinds, page
//     sizes, configurations) for callers composing their own studies.
//
// Implementation packages live under internal/; this facade is the
// supported surface.
package neummu

import (
	"net/http"

	"neummu/internal/cluster"
	"neummu/internal/core"
	"neummu/internal/embeddings"
	"neummu/internal/exp"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/numa"
	"neummu/internal/serve"
	"neummu/internal/spatial"
	"neummu/internal/store"
	"neummu/internal/systolic"
	"neummu/internal/trace"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// MMUKind selects a translation architecture.
type MMUKind = core.Kind

// Canonical MMU configurations (§IV).
const (
	// OracleMMU resolves every translation instantly; all results are
	// normalized against it.
	OracleMMU = core.Oracle
	// BaselineIOMMU is the GPU-centric IOMMU of Table I: 2048-entry TLB,
	// 8 page-table walkers, no scoreboard, no merging, no path caching.
	BaselineIOMMU = core.IOMMU
	// ThroughputNeuMMU is the paper's proposal: 128 walkers with 32-slot
	// PRMBs, a pending-translation scoreboard, and per-walker TPregs.
	ThroughputNeuMMU = core.NeuMMU
	// CustomMMU builds the walker from per-point knobs; it is the kind to
	// sweep when exploring the design space (see Sweep and SweepAxes).
	CustomMMU = core.Custom
)

// PathKind selects a translation-path caching scheme for CustomMMU sweep
// points (§IV-C design space).
type PathKind = walker.PathKind

// Translation-path caching schemes.
const (
	PathNone  = walker.PathNone
	PathTPreg = walker.PathTPreg
	PathTPC   = walker.PathTPC
	PathUPTC  = walker.PathUPTC
)

// PageSize is a virtual-memory page granularity.
type PageSize = vm.PageSize

// Supported page sizes.
const (
	Page4K = vm.Page4K
	Page2M = vm.Page2M
)

// Result is a dense-workload simulation result.
type Result = npu.Result

// SparseResult is a recommendation-workload (NUMA case study) result.
type SparseResult = numa.Result

// GatherMode selects how a multi-NPU system reaches remote embeddings.
type GatherMode = numa.Mode

// Remote-gather modes for SimulateSparse (§V, §VI-A).
const (
	GatherBaselineCopy = numa.BaselineCopy
	GatherNUMASlow     = numa.NUMASlow
	GatherNUMAFast     = numa.NUMAFast
	GatherDemandPaging = numa.DemandPaging
	// GatherDemandPagingMosaic demand-pages at 4 KB and promotes hot
	// 2 MB regions to large pages (the §VI-A Mosaic-style extension).
	GatherDemandPagingMosaic = numa.DemandPagingMosaic
)

// Effort is the unified simulation-effort knob: mode ("exact" or
// "quick") and schedule caps. The same type is threaded through Options,
// HarnessOptions, the neuserve request schema, and the cluster wire
// protocol; see docs/API.md for the request form.
type Effort = exp.Effort

// Effort modes.
const (
	// EffortExact fully simulates every cell (the default).
	EffortExact = exp.EffortExact
	// EffortQuick shrinks harness sweep grids (models, batches, caps) for
	// smoke and benchmark use; cells still simulate exactly.
	EffortQuick = exp.EffortQuick
)

// Options tunes a Simulate call.
type Options struct {
	// PageSize defaults to Page4K.
	PageSize PageSize
	// SpatialNPU switches the compute model from the TPU-style systolic
	// array to the DaDianNao/Eyeriss-style spatial grid (§VI-B).
	SpatialNPU bool
	// Effort selects the simulation caps. Every run is the serial
	// schedule on one machine. Effort.RepeatCap and Effort.TileCap
	// truncate repeated layers / per-layer tiles to bound simulation
	// time; zero simulates everything.
	Effort Effort
}

// DenseModels returns the paper aliases of the six dense workloads.
func DenseModels() []string {
	return []string{"CNN-1", "CNN-2", "CNN-3", "RNN-1", "RNN-2", "RNN-3"}
}

// SparseModels returns the recommendation-system workloads of §V.
func SparseModels() []string { return []string{"NCF", "DLRM"} }

// TransformerModels returns the post-paper transformer workloads: TF-1
// (BERT-base encoder), TF-2 (GPT-2-style decoder with autoregressive
// KV-cache streaming), and TF-3 (BERT-large at training-scale batch).
// They run everywhere dense models do — Simulate, Sweep, and the
// harness's tfsuite/kvcache/seqsweep studies (see EXPERIMENTS.md).
func TransformerModels() []string { return []string{"TF-1", "TF-2", "TF-3"} }

// Simulate runs one dense DNN or transformer workload (by paper alias or
// model name) at the given batch size under the given MMU kind.
func Simulate(model string, batch int, kind MMUKind, opts Options) (*Result, error) {
	m, err := workloads.ByName(model)
	if err != nil {
		return nil, err
	}
	if err := opts.Effort.Validate(); err != nil {
		return nil, err
	}
	ps := opts.PageSize
	if ps == 0 {
		ps = Page4K
	}
	cfg := npu.Config{
		MMU:       core.ConfigFor(kind, ps),
		Memory:    memsys.Baseline(),
		Compute:   systolic.Baseline(),
		RepeatCap: opts.Effort.RepeatCap,
		TileCap:   opts.Effort.TileCap,
	}
	if opts.SpatialNPU {
		cfg.Compute = spatial.Baseline()
	}
	return npu.RunModel(m, batch, cfg)
}

// SimulateSparse runs one recommendation workload on the 4-NPU system of
// §V under the given remote-gather mode and MMU kind.
func SimulateSparse(model string, batch int, mode GatherMode, kind MMUKind, ps PageSize) (*SparseResult, error) {
	cfg, err := embeddings.ByName(model)
	if err != nil {
		return nil, err
	}
	if ps == 0 {
		ps = Page4K
	}
	return numa.Run(cfg, batch, mode, kind, ps, numa.DefaultSystem())
}

// SimulateSparseIterations runs several consecutive inference batches that
// share MMU and demand-paged residency state: the first batch runs cold,
// later batches profit from already-migrated pages (or thrash when local
// memory is oversubscribed). Returns one result per batch.
func SimulateSparseIterations(model string, batch, iterations int, mode GatherMode,
	kind MMUKind, ps PageSize) ([]*SparseResult, error) {
	cfg, err := embeddings.ByName(model)
	if err != nil {
		return nil, err
	}
	if ps == 0 {
		ps = Page4K
	}
	return numa.RunIterations(cfg, batch, iterations, mode, kind, ps, numa.DefaultSystem())
}

// Harness regenerates the paper's tables and figures; see internal/exp
// for the per-figure methods and EXPERIMENTS.md for the index.
type Harness = exp.Harness

// HarnessOptions tunes a harness: Effort (mode, caps, CI target;
// Effort{Mode: EffortQuick} selects the reduced smoke grid), the Models/Batches suite, and Workers, which bounds the
// sweep engine's cross-cell parallelism (0 = GOMAXPROCS). RepeatCap and
// TileCap are not inputs: Harness.Options reads the normalized caps out
// through them.
type HarnessOptions = exp.Options

// NewHarness returns a figure-regeneration harness.
func NewHarness(opts HarnessOptions) *Harness { return exp.New(opts) }

// SweepAxes declares the cartesian design space of a sweep: any subset of
// MMU kind × page size × model × batch × walker shape (PTW count, PRMB
// slots, scoreboard, path caching, TLB capacity). Unset axes take
// defaults; see the field documentation on exp.Axes.
type SweepAxes = exp.Axes

// SweepPoint is one fully specified design point of a sweep grid.
type SweepPoint = exp.Point

// SweepResult is one evaluated sweep point: the point itself, performance
// normalized to the oracle MMU at the point's page size, and the full
// simulation result for deeper metrics.
type SweepResult = exp.SweepResult

// Sweep expands the axes into their cartesian product and evaluates every
// design point on a bounded worker pool (opts.Workers; 0 = GOMAXPROCS),
// returning typed rows in deterministic grid order regardless of how the
// parallel execution interleaves. Oracle baselines and tiling plans are
// memoized and shared across workers, so a sweep never simulates the same
// baseline twice. It is the engine every figure in EXPERIMENTS.md runs
// on; use a Harness directly to run several sweeps against one shared
// cache.
func Sweep(axes SweepAxes, opts HarnessOptions) ([]SweepResult, error) {
	return NewHarness(opts).Sweep(axes)
}

// Server is the simulation-as-a-service layer behind cmd/neuserve: an
// http.Handler exposing sweep, single-simulation, figure, and metrics
// endpoints over a work-conserving scheduler and a content-addressed result
// cache. Embed it to serve NeuMMU studies from your own process; see
// internal/serve for the endpoint list and the determinism guarantee
// (same request ⇒ byte-identical body, cache hit or miss).
type Server = serve.Server

// ServerConfig tunes a Server: worker budget, the scheduler queue bound
// (admission control), and cache byte bounds.
type ServerConfig = serve.Config

// NewServer returns a simulation service ready to mount on any HTTP mux.
// Call Close after the HTTP server has drained to stop the scheduler.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// Store is the durable result tier behind a Server's RAM cache: one
// checksummed, content-addressed file per simulated cell, written behind
// the request path and GC'd coldest-first to a byte budget, so a
// restarted process answers previously simulated cells from disk instead
// of re-simulating. Corrupt entries are quarantined and re-simulated,
// never served. See internal/store for the file format and policy.
type Store = store.Store

// StoreConfig tunes a Store: directory, byte budget, write-queue depth.
type StoreConfig = store.Config

// OpenStore opens (or creates) a durable result store. Hand it to a
// Server via ServerConfig.Store; the caller owns its lifecycle and calls
// Close after the Server has closed.
func OpenStore(cfg StoreConfig) (*Store, error) { return store.Open(cfg) }

// Coordinator is the scale-out front of a neuserve fleet: an http.Handler
// that answers through a Server's own front end (every endpoint but the
// figure registry), sharding the expanded grid across workers by
// consistent hashing on the content-addressed cell key, and merging the
// streams back byte-identical to a single process. See internal/cluster
// for the routing, failure-handling, and determinism contract.
type Coordinator = cluster.Coordinator

// ClusterConfig tunes a Coordinator: the worker fleet, hash-ring
// replicas, per-cell retry budget, shard timeout, and health probing.
type ClusterConfig = cluster.Config

// NewCoordinator returns a sweep coordinator for the given worker fleet
// (worker URLs point at plain neuserve instances). Call Close after the
// HTTP server has drained to stop the health checker.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) { return cluster.New(cfg) }

// Trace is the spans recorded under one request's trace ID, as served by
// GET /debug/traces/{id} on a Server or Coordinator. Every /v1/sweep,
// /v1/sim, and /v1/cells request is traced end to end: an inbound
// X-Trace-Id header is honored (one is minted otherwise), propagated to
// workers on cluster dispatch, and echoed on the response; each cell
// carries per-stage latency attribution (queue wait, cache lookup, disk
// read, compute, re-route, merge) plus its simulation counters.
type Trace = trace.Trace

// TraceConfig tunes tracing on a ServerConfig or ClusterConfig: span
// ring-buffer capacity, the slow-cell threshold and log depth, and the
// structured logger that receives slow-cell records.
type TraceConfig = trace.Config

// RemoteSweepFunc is the pluggable remote sweep backend type carried by
// HarnessOptions.Remote.
type RemoteSweepFunc = exp.RemoteFunc

// RemoteSweep returns a remote sweep backend for HarnessOptions.Remote:
// Sweep and SweepPoints evaluate their cells on the neuserve fleet (or
// single instance) at baseURL instead of simulating in-process, keeping
// deterministic row order and values. Rows carry headline metrics only
// (cycles, translations, normalized perf). A nil client selects a
// default suited to long streaming responses.
func RemoteSweep(baseURL string, client *http.Client) exp.RemoteFunc {
	return cluster.SweepFunc(baseURL, client)
}
