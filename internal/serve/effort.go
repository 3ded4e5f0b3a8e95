package serve

import (
	"fmt"

	"neummu/internal/exp"
	"neummu/internal/npu"
)

// WireEffort is the JSON form of the unified effort knob, shared by
// /v1/sweep, /v1/sim and /v1/cells: {"effort": {"mode": ...}}. It
// subsumes the legacy flat quick/repeat_cap/tile_cap request fields,
// which remain accepted (and byte-identical in behavior) but deprecated;
// requests still using them are answered with an X-Neuserve-Deprecated
// header. Every field is omitempty so requests that do not set an effort
// object — including every pre-redesign payload — marshal to exactly the
// bytes they always did.
type WireEffort struct {
	// Mode is "exact" (the default), "sampled", or "quick". Unknown modes
	// are rejected with a bad_request envelope, never silently defaulted.
	Mode string `json:"mode,omitempty"`
	// RepeatCap / TileCap override the legacy flat caps when non-zero.
	RepeatCap int `json:"repeat_cap,omitempty"`
	TileCap   int `json:"tile_cap,omitempty"`
	// TargetCI is the requested relative 95% CI half-width for sampled
	// mode (0 = 0.05). Rejected outside sampled mode.
	TargetCI float64 `json:"target_ci,omitempty"`
	// IntraCellWorkers is a retired knob, accepted so that old payloads
	// still decode under DisallowUnknownFields, and otherwise ignored: a
	// request that sets it is answered with, and cached under, the exact
	// cell, plus the deprecation header. A negative value is still a
	// bad request.
	IntraCellWorkers int `json:"intra_cell_workers,omitempty"`
}

// SampleJSON is the per-cell sampling audit carried on sweep rows and
// cell lines when the cell ran in sampled mode (absent — not null — for
// exact cells, so exact responses are byte-identical to pre-redesign
// ones). CyclesLo/CyclesHi bracket the Cycles estimate with a 95%
// confidence interval; Seed reproduces the exact epoch subset.
type SampleJSON struct {
	Population int     `json:"population"`
	Simulated  int     `json:"simulated"`
	Seed       uint64  `json:"seed"`
	TargetCI   float64 `json:"target_ci"`
	RelCI95    float64 `json:"rel_ci95"`
	CyclesLo   int64   `json:"cycles_lo"`
	CyclesHi   int64   `json:"cycles_hi"`
}

// sampleJSON converts a simulation's sampling audit to its wire form
// (nil in, nil out — exact cells carry no audit).
func sampleJSON(s *npu.SampleStats) *SampleJSON {
	if s == nil {
		return nil
	}
	return &SampleJSON{
		Population: s.Population, Simulated: s.Simulated, Seed: s.Seed,
		TargetCI: s.TargetCI, RelCI95: s.RelCI95,
		CyclesLo: int64(s.CyclesLo), CyclesHi: int64(s.CyclesHi),
	}
}

// Effort is exp.Effort, kept under this name for callers that compile
// against the serve package.
type Effort = exp.Effort

// MergeEffort folds a request's effort object and its legacy flat fields
// into the one exp.Effort that selects its harness: the only place the
// legacy spelling is decoded. The effort object wins wherever both speak:
// an explicit mode replaces the legacy quick flag, and non-zero caps
// replace the flat caps. "exact" is canonicalized to the zero mode so the
// two spellings of the default share every key, and the retired
// intra_cell_workers is dropped. Unknown modes and out-of-range knobs
// are an error (a bad_request envelope on every endpoint), never a
// silent default.
func MergeEffort(we *WireEffort, quick bool, repeatCap, tileCap int) (exp.Effort, error) {
	e := exp.Effort{RepeatCap: repeatCap, TileCap: tileCap}
	if quick {
		e.Mode = exp.EffortQuick
	}
	if we == nil {
		return e, nil
	}
	if err := (exp.Effort{Mode: we.Mode, TargetCI: we.TargetCI}).Validate(); err != nil {
		return e, err
	}
	if we.IntraCellWorkers < 0 {
		return e, fmt.Errorf("effort intra_cell_workers %d is negative", we.IntraCellWorkers)
	}
	if we.Mode != "" {
		e.Mode = we.Mode
	}
	if e.Mode == exp.EffortExact {
		e.Mode = ""
	}
	if we.RepeatCap != 0 {
		e.RepeatCap = we.RepeatCap
	}
	if we.TileCap != 0 {
		e.TileCap = we.TileCap
	}
	e.TargetCI = we.TargetCI
	if e.Sampled() && e.TargetCI == 0 {
		e.TargetCI = 0.05
	}
	return e, nil
}

// DeprecationHeader is set on responses to requests that selected effort
// only through the legacy flat fields (quick/repeat_cap/tile_cap in a
// JSON body, quick on the figure endpoint) instead of the effort object,
// or that set the ignored intra_cell_workers. It is a header, not a body
// field, so legacy response bodies stay byte-identical.
const DeprecationHeader = "X-Neuserve-Deprecated"

const deprecationNote = "quick/repeat_cap/tile_cap are deprecated (use the effort object) and intra_cell_workers is ignored; see docs/API.md"

// requestEffort is MergeEffort plus the one deprecation rule, shared by
// all four endpoints: a request is deprecated when it sets a legacy flat
// field and no effort object, or sets intra_cell_workers.
func requestEffort(we *WireEffort, quick bool, repeatCap, tileCap int) (e exp.Effort, deprecated bool, err error) {
	e, err = MergeEffort(we, quick, repeatCap, tileCap)
	if we == nil {
		return e, quick || repeatCap != 0 || tileCap != 0, err
	}
	return e, we.IntraCellWorkers != 0, err
}
