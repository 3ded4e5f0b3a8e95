package serve

import (
	"runtime"

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
	// IntraCellWorkers splits each cell's simulation across that many
	// cores at epoch barriers. Any value ≥ 1 selects the cold-epoch
	// schedule (keyed separately from the serial one); the count itself
	// only trades wall-clock time and is never part of a cell's identity.
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
// two spellings of the default share every key, and IntraCellWorkers is
// clamped to GOMAXPROCS: the count never changes result bytes, so a
// larger one would only start more cold machines than the process has
// cores and build another harness. Unknown modes and out-of-range knobs
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
	if err := (exp.Effort{
		Mode: we.Mode, TargetCI: we.TargetCI, IntraCellWorkers: we.IntraCellWorkers,
	}).Validate(); err != nil {
		return e, err
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
	e.IntraCellWorkers = min(we.IntraCellWorkers, runtime.GOMAXPROCS(0))
	return e, nil
}

// DeprecationHeader is set on responses to requests that selected effort
// only through the legacy flat fields (quick/repeat_cap/tile_cap in a
// JSON body, quick on the figure endpoint) instead of the effort object.
// It is a header, not a body field, so legacy response bodies stay
// byte-identical.
const DeprecationHeader = "X-Neuserve-Deprecated"

const deprecationNote = "quick/repeat_cap/tile_cap are deprecated; use the effort object (see docs/API.md)"

// requestEffort is MergeEffort plus the one deprecation rule, shared by
// all four endpoints: a request is deprecated when it sets a legacy flat
// field and no effort object.
func requestEffort(we *WireEffort, quick bool, repeatCap, tileCap int) (e exp.Effort, deprecated bool, err error) {
	e, err = MergeEffort(we, quick, repeatCap, tileCap)
	return e, we == nil && (quick || repeatCap != 0 || tileCap != 0), err
}
