package workloads

import (
	"fmt"

	"neummu/internal/tensor"
	"neummu/internal/vm"
)

// TileConfig describes how the planner maps layers onto the scratchpads.
type TileConfig struct {
	// IABudget and WBudget are the per-buffer tile capacities in bytes.
	// With double-buffering, a 10 MB scratchpad yields 5 MB tiles
	// (§III-C: "the tile size of IA and W can be as large as 5 MB").
	IABudget, WBudget int64
	// ElemSize is bytes per tensor element (4 for fp32).
	ElemSize int
}

// DefaultTiles returns the paper's nominal tiling configuration.
func DefaultTiles() TileConfig {
	return TileConfig{IABudget: 5 << 20, WBudget: 5 << 20, ElemSize: 4}
}

func (c TileConfig) withDefaults() TileConfig {
	if c.IABudget <= 0 {
		c.IABudget = 5 << 20
	}
	if c.WBudget <= 0 {
		c.WBudget = 5 << 20
	}
	if c.ElemSize <= 0 {
		c.ElemSize = 4
	}
	return c
}

// Tile is one double-buffered unit of work: the tensor views the DMA must
// fetch before the compute phase, and the GEMM shape of the compute phase.
type Tile struct {
	Views   []tensor.View
	M, K, N int64
	// Step tags the autoregressive decode step this tile belongs to
	// (Attention layers with DecodeSteps > 0); 0 elsewhere. The KV-cache
	// studies use it to attribute per-tile fetch statistics to decode
	// steps.
	Step int
}

// Bytes returns the tile's fetched data volume.
func (t Tile) Bytes() int64 {
	var n int64
	for _, v := range t.Views {
		n += v.Bytes()
	}
	return n
}

// PlannedLayer is a layer lowered to a tile schedule.
type PlannedLayer struct {
	Name   string
	Repeat int
	Tiles  []Tile
}

// Times returns the effective repeat count (at least 1).
func (p PlannedLayer) Times() int {
	if p.Repeat <= 0 {
		return 1
	}
	return p.Repeat
}

// Plan is a model lowered to tile schedules plus the VA regions that must
// be mapped before execution.
type Plan struct {
	Model  string
	Batch  int
	Layers []PlannedLayer
	Space  *vm.Space
}

// TotalTiles returns the tile count including repeats.
func (p *Plan) TotalTiles() int {
	n := 0
	for _, l := range p.Layers {
		n += len(l.Tiles) * l.Times()
	}
	return n
}

// TotalBytes returns the total DMA traffic including repeats.
func (p *Plan) TotalBytes() int64 {
	var n int64
	for _, l := range p.Layers {
		var per int64
		for _, t := range l.Tiles {
			per += t.Bytes()
		}
		n += per * int64(l.Times())
	}
	return n
}

// BuildPlan lowers a model at the given batch size onto tile schedules,
// allocating every tensor in a fresh virtual address space.
func BuildPlan(m Model, batch int, cfg TileConfig) (*Plan, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("workloads: batch must be positive, got %d", batch)
	}
	cfg = cfg.withDefaults()
	space := vm.NewSpace(0x1000_0000, vm.Page4K)
	plan := &Plan{Model: m.Name, Batch: batch, Space: space}
	for _, spec := range m.Layers {
		var pl PlannedLayer
		var err error
		switch spec.Kind {
		case Conv:
			pl, err = planConv(spec, batch, cfg, space)
		case FC, RNNCell, GEMM:
			pl, err = planGEMM(spec, batch, cfg, space)
		case Attention:
			pl, err = planAttention(spec, batch, cfg, space)
		case LayerNorm:
			pl, err = planLayerNorm(spec, batch, cfg, space)
		default:
			err = fmt.Errorf("workloads: layer %q has unknown kind", spec.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("workloads: %s/%s: %w", m.Name, spec.Name, err)
		}
		plan.Layers = append(plan.Layers, pl)
	}
	return plan, nil
}

// planConv tiles a convolution: filters are blocked to fit the weight
// scratchpad (weight-stationary), and within each filter block the input
// is blocked over output rows to fit the activation scratchpad. The
// filter-block's weights are fetched with the block's first tile.
func planConv(l LayerSpec, batch int, cfg TileConfig, space *vm.Space) (PlannedLayer, error) {
	oh, ow := l.OutDims()
	if oh <= 0 || ow <= 0 {
		return PlannedLayer{}, fmt.Errorf("degenerate output %dx%d", oh, ow)
	}
	es := cfg.ElemSize
	iaBytes := int64(batch) * int64(l.C) * int64(l.H) * int64(l.W) * int64(es)
	wBytes := int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S) * int64(es)

	iaRegion := space.Alloc(l.Name+"/IA", uint64(iaBytes))
	wRegion := space.Alloc(l.Name+"/W", uint64(wBytes))
	ia := tensor.New(l.Name+"/IA", iaRegion.Base, es, batch, l.C, l.H, l.W)
	w := tensor.New(l.Name+"/W", wRegion.Base, es, l.K, l.C, l.R, l.S)

	// Filters per weight tile.
	perFilter := int64(l.C) * int64(l.R) * int64(l.S) * int64(es)
	kt := int(cfg.WBudget / perFilter)
	if kt < 1 {
		kt = 1
	}
	if kt > l.K {
		kt = l.K
	}

	// Output rows per activation tile: input rows = (ht-1)·stride + R.
	perInRow := int64(batch) * int64(l.C) * int64(l.W) * int64(es)
	maxInRows := int(cfg.IABudget / perInRow)
	ht := (maxInRows - l.R + l.Stride) / l.Stride
	if ht < 1 {
		ht = 1
	}
	if ht > oh {
		ht = oh
	}

	var tiles []Tile
	for kb := 0; kb < l.K; kb += kt {
		kHi := min(kb+kt, l.K)
		for hb := 0; hb < oh; hb += ht {
			hHi := min(hb+ht, oh)
			// Input rows feeding output rows [hb, hHi).
			inLo := hb*l.Stride - l.Pad
			inHi := (hHi-1)*l.Stride - l.Pad + l.R
			if inLo < 0 {
				inLo = 0
			}
			if inHi > l.H {
				inHi = l.H
			}
			t := Tile{
				M: int64(batch) * int64(hHi-hb) * int64(ow),
				K: int64(l.C) * int64(l.R) * int64(l.S),
				N: int64(kHi - kb),
			}
			t.Views = append(t.Views, tensor.ViewOf(ia,
				tensor.Full(batch), tensor.Full(l.C),
				tensor.Range{Lo: inLo, Hi: inHi}, tensor.Full(l.W)))
			if hb == 0 {
				// Weight-stationary: the filter block loads once.
				t.Views = append(t.Views, tensor.ViewOf(w,
					tensor.Range{Lo: kb, Hi: kHi}, tensor.Full(l.C),
					tensor.Full(l.R), tensor.Full(l.S)))
			}
			tiles = append(tiles, t)
		}
	}
	return PlannedLayer{Name: l.Name, Repeat: l.Times(), Tiles: tiles}, nil
}

// planGEMM tiles an FC, RNN-cell, or transformer GEMM layer: the N×K
// weight matrix is blocked over output columns; the activation matrix is
// fetched with the first tile when it fits the scratchpad (it always does
// for the dense suite's inference batches), re-fetched per weight block
// when it doesn't, and additionally blocked over rows when even one
// block's worth exceeds the activation budget (transformer FFNs, where
// rows = batch × sequence length).
func planGEMM(l LayerSpec, batch int, cfg TileConfig, space *vm.Space) (PlannedLayer, error) {
	if l.M <= 0 || l.KDim <= 0 || l.N <= 0 {
		return PlannedLayer{}, fmt.Errorf("degenerate GEMM %dx%dx%d", l.M, l.KDim, l.N)
	}
	es := cfg.ElemSize
	rows := batch * l.M
	iaBytes := int64(rows) * int64(l.KDim) * int64(es)
	wBytes := int64(l.N) * int64(l.KDim) * int64(es)

	iaRegion := space.Alloc(l.Name+"/IA", uint64(iaBytes))
	wRegion := space.Alloc(l.Name+"/W", uint64(wBytes))
	ia := tensor.New(l.Name+"/IA", iaRegion.Base, es, rows, l.KDim)
	w := tensor.New(l.Name+"/W", wRegion.Base, es, l.N, l.KDim)

	perOut := int64(l.KDim) * int64(es)
	nt := clampRows(cfg.WBudget/perOut, l.N)
	iaFits := iaBytes <= cfg.IABudget
	mt := clampRows(cfg.IABudget/(int64(l.KDim)*int64(es)), rows)

	var tiles []Tile
	for nb := 0; nb < l.N; nb += nt {
		nHi := min(nb+nt, l.N)
		for mb := 0; mb < rows; mb += mt {
			mHi := min(mb+mt, rows)
			t := Tile{M: int64(mHi - mb), K: int64(l.KDim), N: int64(nHi - nb)}
			if !iaFits || nb == 0 {
				t.Views = append(t.Views, tensor.ViewOf(ia,
					tensor.Range{Lo: mb, Hi: mHi}, tensor.Full(l.KDim)))
			}
			if mb == 0 {
				// Weight-stationary: the column block loads once and
				// serves every row block.
				t.Views = append(t.Views, tensor.ViewOf(w,
					tensor.Range{Lo: nb, Hi: nHi}, tensor.Full(l.KDim)))
			}
			tiles = append(tiles, t)
		}
	}
	return PlannedLayer{Name: l.Name, Repeat: l.Times(), Tiles: tiles}, nil
}

// planAttention tiles a self-attention layer. The key/value pair lives in
// one dedicated "/KV" region — per token, K and V are contiguous (the
// usual cache layout), so the KV tensor is (batch, ctx, 2·d) — giving the
// layer a virtual range whose page-divergence profile is distinct from
// activations and weights. Encoder attention blocks the context to the
// weight scratchpad (KV-stationary, mirroring planConv) and streams query
// rows through the activation scratchpad; decode attention lowers every
// autoregressive step to its own tiles over the growing KV prefix.
func planAttention(l LayerSpec, batch int, cfg TileConfig, space *vm.Space) (PlannedLayer, error) {
	if l.SeqLen <= 0 || l.DModel <= 0 {
		return PlannedLayer{}, fmt.Errorf("degenerate attention %d tokens x %d dims", l.SeqLen, l.DModel)
	}
	if l.Heads > 0 && l.DModel%l.Heads != 0 {
		return PlannedLayer{}, fmt.Errorf("d_model %d not divisible by %d heads", l.DModel, l.Heads)
	}
	if l.DecodeSteps > 0 {
		return planDecodeAttention(l, batch, cfg, space)
	}
	es := cfg.ElemSize
	seq, ctx, d := l.SeqLen, l.Ctx(), l.DModel

	qBytes := int64(batch) * int64(seq) * int64(d) * int64(es)
	kvBytes := int64(batch) * int64(ctx) * 2 * int64(d) * int64(es)
	qRegion := space.Alloc(l.Name+"/Q", uint64(qBytes))
	kvRegion := space.Alloc(l.Name+"/KV", uint64(kvBytes))
	q := tensor.New(l.Name+"/Q", qRegion.Base, es, batch, seq, d)
	kv := tensor.New(l.Name+"/KV", kvRegion.Base, es, batch, ctx, 2*d)

	// Query rows per activation tile; KV token rows per context block.
	st := clampRows(cfg.IABudget/(int64(batch)*int64(d)*int64(es)), seq)
	ct := clampRows(cfg.WBudget/(int64(batch)*2*int64(d)*int64(es)), ctx)

	var tiles []Tile
	for cb := 0; cb < ctx; cb += ct {
		cHi := min(cb+ct, ctx)
		for sb := 0; sb < seq; sb += st {
			sHi := min(sb+st, seq)
			t := Tile{
				M: int64(batch) * int64(sHi-sb),
				K: int64(cHi - cb),
				N: 2 * int64(d),
			}
			t.Views = append(t.Views, tensor.ViewOf(q,
				tensor.Full(batch), tensor.Range{Lo: sb, Hi: sHi}, tensor.Full(d)))
			if sb == 0 {
				// KV-stationary: the context block loads once.
				t.Views = append(t.Views, tensor.ViewOf(kv,
					tensor.Full(batch), tensor.Range{Lo: cb, Hi: cHi}, tensor.Full(2*d)))
			}
			tiles = append(tiles, t)
		}
	}
	return PlannedLayer{Name: l.Name, Repeat: l.Times(), Tiles: tiles}, nil
}

// planDecodeAttention lowers autoregressive decoding: step i fetches one
// query token and re-streams KV rows [0, CtxLen+i+1) — the quadratic
// KV-cache traffic that makes decoders translation-bound. The whole
// region (past + all generated tokens) is allocated up front; growth is
// in the per-step views, so the tile schedule stays a pure function of
// the spec. Tiles carry their Step for per-step attribution.
func planDecodeAttention(l LayerSpec, batch int, cfg TileConfig, space *vm.Space) (PlannedLayer, error) {
	if l.CtxLen < 0 {
		return PlannedLayer{}, fmt.Errorf("negative past length %d", l.CtxLen)
	}
	es := cfg.ElemSize
	d, steps := l.DModel, l.DecodeSteps
	total := l.CtxLen + steps

	qBytes := int64(batch) * int64(steps) * int64(d) * int64(es)
	kvBytes := int64(batch) * int64(total) * 2 * int64(d) * int64(es)
	qRegion := space.Alloc(l.Name+"/Q", uint64(qBytes))
	kvRegion := space.Alloc(l.Name+"/KV", uint64(kvBytes))
	q := tensor.New(l.Name+"/Q", qRegion.Base, es, batch, steps, d)
	kv := tensor.New(l.Name+"/KV", kvRegion.Base, es, batch, total, 2*d)

	ct := clampRows(cfg.WBudget/(int64(batch)*2*int64(d)*int64(es)), total)

	var tiles []Tile
	for i := 0; i < steps; i++ {
		ctxNow := l.CtxLen + i + 1
		for cb := 0; cb < ctxNow; cb += ct {
			cHi := min(cb+ct, ctxNow)
			t := Tile{
				M:    int64(batch),
				K:    int64(cHi - cb),
				N:    2 * int64(d),
				Step: i,
			}
			t.Views = append(t.Views, tensor.ViewOf(kv,
				tensor.Full(batch), tensor.Range{Lo: cb, Hi: cHi}, tensor.Full(2*d)))
			if cb == 0 {
				t.Views = append(t.Views, tensor.ViewOf(q,
					tensor.Full(batch), tensor.Range{Lo: i, Hi: i + 1}, tensor.Full(d)))
			}
			tiles = append(tiles, t)
		}
	}
	return PlannedLayer{Name: l.Name, Repeat: l.Times(), Tiles: tiles}, nil
}

// planLayerNorm streams the activation matrix once through the
// activation scratchpad: row blocks sized to the IA budget, compute
// modeled as the two reduction passes (K=2) over each row's d elements.
func planLayerNorm(l LayerSpec, batch int, cfg TileConfig, space *vm.Space) (PlannedLayer, error) {
	if l.SeqLen <= 0 || l.DModel <= 0 {
		return PlannedLayer{}, fmt.Errorf("degenerate layernorm %d tokens x %d dims", l.SeqLen, l.DModel)
	}
	es := cfg.ElemSize
	seq, d := l.SeqLen, l.DModel
	xBytes := int64(batch) * int64(seq) * int64(d) * int64(es)
	region := space.Alloc(l.Name+"/X", uint64(xBytes))
	x := tensor.New(l.Name+"/X", region.Base, es, batch, seq, d)

	st := clampRows(cfg.IABudget/(int64(batch)*int64(d)*int64(es)), seq)
	var tiles []Tile
	for sb := 0; sb < seq; sb += st {
		sHi := min(sb+st, seq)
		t := Tile{M: int64(batch) * int64(sHi-sb), K: 2, N: int64(d)}
		t.Views = append(t.Views, tensor.ViewOf(x,
			tensor.Full(batch), tensor.Range{Lo: sb, Hi: sHi}, tensor.Full(d)))
		tiles = append(tiles, t)
	}
	return PlannedLayer{Name: l.Name, Repeat: l.Times(), Tiles: tiles}, nil
}

// clampRows bounds a budget-derived row count to [1, limit].
func clampRows(rows int64, limit int) int {
	if rows < 1 {
		return 1
	}
	if rows > int64(limit) {
		return limit
	}
	return int(rows)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
