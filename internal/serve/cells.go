package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"neummu/internal/core"
	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/trace"
	"neummu/internal/vm"
	"neummu/internal/walker"
	"neummu/internal/workloads"
)

// This file is the cluster wire protocol: the explicit-point-list
// counterpart of the axes-shaped /v1/sweep API. A coordinator
// (internal/cluster) expands a sweep request into its deterministic point
// grid, shards the points across workers by CellHash64, and each worker
// answers POST /v1/cells with one CellLine per requested point, streamed
// in input order through the same scheduler and content-addressed cache
// as every other endpoint. The types here are the only thing coordinator
// and worker share on the wire, so they are versioned by the request
// schema alone (DisallowUnknownFields on both sides).

// WirePoint is the JSON form of one exp.Point. String-typed enums keep
// the wire readable and stable across internal renumbering.
type WirePoint struct {
	Kind     string `json:"kind"`
	PageSize string `json:"page_size"`
	Model    string `json:"model"`
	Batch    int    `json:"batch"`
	// Walker shape, meaningful for custom points (zero elsewhere).
	PTWs      int    `json:"ptws,omitempty"`
	PRMBSlots int    `json:"prmb_slots,omitempty"`
	PTS       bool   `json:"pts,omitempty"`
	Path      string `json:"path,omitempty"`
	// TLBEntries overrides the TLB capacity; 0 keeps the kind baseline.
	TLBEntries int `json:"tlb_entries,omitempty"`
}

// ToWire converts a design point to its wire form.
func ToWire(p exp.Point) WirePoint {
	return WirePoint{
		Kind:     p.Kind.String(),
		PageSize: p.PageSize.String(),
		Model:    p.Model,
		Batch:    p.Batch,
		PTWs:     p.PTWs, PRMBSlots: p.PRMBSlots, PTS: p.PTS,
		Path:       p.Path.String(),
		TLBEntries: p.TLBEntries,
	}
}

func parseKind(name string) (core.Kind, error) {
	switch name {
	case "oracle":
		return core.Oracle, nil
	case "iommu":
		return core.IOMMU, nil
	case "neummu":
		return core.NeuMMU, nil
	case "custom":
		return core.Custom, nil
	}
	return 0, fmt.Errorf("unknown MMU kind %q (have oracle, iommu, neummu, custom)", name)
}

func parsePageSize(name string) (vm.PageSize, error) {
	switch name {
	case "4KB", "4K", "4k":
		return vm.Page4K, nil
	case "2MB", "2M", "2m":
		return vm.Page2M, nil
	}
	return 0, fmt.Errorf("unknown page size %q (have 4KB, 2MB)", name)
}

func parsePath(name string) (walker.PathKind, error) {
	switch name {
	case "", "none":
		return walker.PathNone, nil
	case "TPreg":
		return walker.PathTPreg, nil
	case "TPC":
		return walker.PathTPC, nil
	case "UPTC":
		return walker.PathUPTC, nil
	}
	return 0, fmt.Errorf("unknown path kind %q (have none, TPreg, TPC, UPTC)", name)
}

// Point converts the wire form back to a design point, validating every
// field a bogus request could abuse (the same checks ExpandSweep applies
// to axes-shaped requests).
func (w WirePoint) Point() (exp.Point, error) {
	var p exp.Point
	kind, err := parseKind(w.Kind)
	if err != nil {
		return p, err
	}
	ps, err := parsePageSize(w.PageSize)
	if err != nil {
		return p, err
	}
	path, err := parsePath(w.Path)
	if err != nil {
		return p, err
	}
	if _, err := workloads.ByName(w.Model); err != nil {
		return p, err
	}
	if w.Batch <= 0 {
		return p, fmt.Errorf("bad batch size %d", w.Batch)
	}
	if kind == core.Custom && w.PTWs <= 0 {
		return p, fmt.Errorf("bad ptws %d (must be positive)", w.PTWs)
	}
	if w.PTWs < 0 || w.PRMBSlots < 0 || w.TLBEntries < 0 {
		return p, fmt.Errorf("negative walker/TLB shape (%d ptws, %d prmb_slots, %d tlb_entries)",
			w.PTWs, w.PRMBSlots, w.TLBEntries)
	}
	return exp.Point{
		Kind: kind, PageSize: ps, Model: w.Model, Batch: w.Batch,
		PTWs: w.PTWs, PRMBSlots: w.PRMBSlots, PTS: w.PTS, Path: path,
		TLBEntries: w.TLBEntries,
	}, nil
}

// CellsRequest is the POST /v1/cells payload: an explicit point list plus
// the effort knobs that shape every cell's schedule.
type CellsRequest struct {
	Points []WirePoint `json:"points"`

	// Legacy flat effort fields, accepted forever (see SweepRequest).
	Quick     bool `json:"quick,omitempty"`
	RepeatCap int  `json:"repeat_cap,omitempty"`
	TileCap   int  `json:"tile_cap,omitempty"`

	// Effort is the unified effort object; nil marshals to nothing so
	// legacy-shaped payload bytes are unchanged by the redesign.
	Effort *WireEffort `json:"effort,omitempty"`
}

// NewCellsRequest builds the /v1/cells payload that evaluates points
// under a harness's normalized options. The legacy flat fields express
// every effort, so the payload bytes are the pre-redesign ones.
func NewCellsRequest(opts exp.Options, points []exp.Point) CellsRequest {
	e := opts.Effort
	req := CellsRequest{
		Points: make([]WirePoint, len(points)),
		Quick:  e.Quick(), RepeatCap: e.RepeatCap, TileCap: e.TileCap,
	}
	for i, p := range points {
		req.Points[i] = ToWire(p)
	}
	return req
}

// CellLine is one NDJSON line of a /v1/cells response: the result of
// request point I. Err is set instead of the metrics when that single
// cell failed; the stream continues with the remaining cells either way.
type CellLine struct {
	I            int     `json:"i"`
	Cycles       int64   `json:"cycles"`
	Translations int64   `json:"translations"`
	Perf         float64 `json:"normalized_perf"`
	// Counters is the cell's audited counter bundle, carried verbatim to
	// the coordinator so a merged sweep reproduces a single process's rows
	// byte for byte.
	Counters counters.Bundle `json:"counters"`
	// Hit reports the cell was answered from this worker's cache.
	Hit bool   `json:"hit,omitempty"`
	Err string `json:"error,omitempty"`
}

// CellHash64 content-addresses one cell for cross-process routing: unlike
// the per-process map hashing the cache keys on, it is a pure function of the
// point and the normalized effort, so every coordinator (and every
// restart) routes the same cell to the same worker. FNV-1a over the
// canonical field encoding, unchanged since before the unified effort
// API, so an upgraded coordinator keeps routing work to the same
// workers. e is a normalized effort (Harness.Options) or its Identity;
// both hash the same.
func CellHash64(p exp.Point, e exp.Effort) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%d|%d|%d|%t|%d|%d|%d|%d",
		p.Kind, p.PageSize, p.Model, p.Batch,
		p.PTWs, p.PRMBSlots, p.PTS, p.Path, p.TLBEntries,
		e.RepeatCap, e.TileCap)
	return h.Sum64()
}

// pointRow renders the public NDJSON row for one resolved cell. It is the
// one rendering path for both roles, which is what makes a merged
// cluster sweep byte-identical to a single-process one.
func pointRow(p exp.Point, v CellValue) CellRow {
	return CellRow{
		Model: p.Model, Batch: p.Batch,
		MMU: p.Kind.String(), PageSize: p.PageSize.String(),
		Cycles: v.Cycles, Translations: v.Translations, NormalizedPerf: v.Perf,
		Counters: v.Counters,
	}
}

// ExpandSweep validates an axes-shaped sweep request and expands it into
// its deterministic point grid under the harness's normalized defaults.
func ExpandSweep(h *exp.Harness, req SweepRequest, maxCells int) ([]exp.Point, error) {
	kinds, err := parseAll(req.MMUs, parseKind)
	if err != nil {
		return nil, err
	}
	sizes, err := parseAll(req.PageSizes, parsePageSize)
	if err != nil {
		return nil, err
	}
	for _, m := range req.Models {
		if _, err := workloads.ByName(m); err != nil {
			return nil, err
		}
	}
	for _, b := range req.Batches {
		if b <= 0 {
			return nil, fmt.Errorf("bad batch size %d", b)
		}
	}
	for _, n := range req.TLBEntries {
		if n < 0 {
			return nil, fmt.Errorf("bad tlb_entries %d", n)
		}
	}
	// The walker silently normalizes non-positive counts to its baseline;
	// reject them here so a bogus axis value cannot be simulated under —
	// and cached against — a label it does not mean.
	for _, n := range req.PTWs {
		if n <= 0 {
			return nil, fmt.Errorf("bad ptws %d (must be positive)", n)
		}
	}
	for _, n := range req.PRMBSlots {
		if n < 0 {
			return nil, fmt.Errorf("bad prmb_slots %d (0 disables merging)", n)
		}
	}
	points := h.Points(exp.Axes{
		Kinds: kinds, PageSizes: sizes,
		Models: req.Models, Batches: req.Batches,
		PTWs: req.PTWs, PRMBSlots: req.PRMBSlots, TLBEntries: req.TLBEntries,
	})
	if len(points) > maxCells {
		return nil, fmt.Errorf("sweep expands to %d cells, above the per-request bound of %d",
			len(points), maxCells)
	}
	return points, nil
}

// parseCells decodes and validates a /v1/cells payload: strict JSON, a
// non-empty point list within the per-request bound, every wire point
// convertible, a valid effort. Every error maps to a 400.
func (s *Server) parseCells(r *http.Request) (h *exp.Harness, points []exp.Point, deprecated bool, err error) {
	var req CellsRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, false, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Points) == 0 {
		return nil, nil, false, errors.New("no points")
	}
	if n := s.cfg.MaxCellsPerRequest; len(req.Points) > n {
		return nil, nil, false, fmt.Errorf("%d cells, above the per-request bound of %d",
			len(req.Points), n)
	}
	points = make([]exp.Point, len(req.Points))
	for i, wp := range req.Points {
		p, err := wp.Point()
		if err != nil {
			return nil, nil, false, fmt.Errorf("point %d: %w", i, err)
		}
		points[i] = p
	}
	e, deprecated, err := requestEffort(req.Effort, req.Quick, req.RepeatCap, req.TileCap)
	if err != nil {
		return nil, nil, false, err
	}
	return s.harnesses.Get(e), points, deprecated, nil
}

// handleCells streams one CellLine per requested point, in input order,
// resolving each point through the same resolver as /v1/sweep — so a
// coordinator routing repeated cells to this worker hits the same LRU
// entries an interactive client would. A cell failure is reported on its
// own line; only a retryable failure of the first cell answers the
// envelope instead.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := trace.FromRequest(r)
	h, points, deprecated, err := s.parseCells(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	cells, hits, ok := s.admit(w, r, traceID, start, h, points)
	if !ok {
		return
	}
	setStreamHeaders(w, traceID, len(points), hits, deprecated)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mergeNS int64
	for i, c := range cells {
		if i > 0 {
			mergeNS += flushBeforeWait(flusher, c)
		}
		v, hit, err := c.Wait(r.Context())
		if err != nil && i == 0 && retryable(err) {
			s.reject(w, traceID, err)
			s.finishRequest(traceID, r, start, len(points), hits, mergeNS, err)
			return
		}
		line := CellLine{I: i, Hit: hit}
		if err != nil {
			line.Err = err.Error()
		} else {
			line.Cycles, line.Translations, line.Perf = v.Cycles, v.Translations, v.Perf
			line.Counters = v.Counters
		}
		te := time.Now()
		enc.Encode(line)
		mergeNS += int64(time.Since(te))
	}
	s.served(len(points), start)
	s.finishRequest(traceID, r, start, len(points), hits, mergeNS, nil)
}
