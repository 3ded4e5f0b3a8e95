package serve

import (
	"net/http"

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

// MergeEffort folds a request's effort object and its legacy flat fields
// into the canonical harness-selecting Effort. The effort object wins
// wherever both speak: an explicit mode overrides the legacy quick flag
// (including "exact" turning it off), and non-zero caps override the
// flat caps. A nil effort object reproduces the legacy behavior exactly.
// Unknown modes and out-of-range knobs are an error (mapped to a
// bad_request envelope by every handler), never a silent default.
func MergeEffort(we *WireEffort, quick bool, repeatCap, tileCap int) (Effort, error) {
	e := Effort{Quick: quick, RepeatCap: repeatCap, TileCap: tileCap}
	if we == nil {
		return e, nil
	}
	if err := (exp.Effort{
		Mode: we.Mode, TargetCI: we.TargetCI, IntraCellWorkers: we.IntraCellWorkers,
	}).Validate(); err != nil {
		return e, err
	}
	switch we.Mode {
	case exp.EffortExact:
		e.Quick = false
	case exp.EffortQuick:
		e.Quick = true
	case exp.EffortSampled:
		e.Sampled = true
	}
	if we.RepeatCap != 0 {
		e.RepeatCap = we.RepeatCap
	}
	if we.TileCap != 0 {
		e.TileCap = we.TileCap
	}
	if we.TargetCI != 0 {
		e.TargetCI = we.TargetCI
	}
	if e.Sampled && e.TargetCI == 0 {
		e.TargetCI = 0.05
	}
	if we.IntraCellWorkers > 0 {
		e.IntraCellWorkers = we.IntraCellWorkers
	}
	return e, nil
}

// expEffort maps the serve-level effort to the harness's unified knob.
func (e Effort) expEffort() exp.Effort {
	mode := ""
	switch {
	case e.Sampled:
		mode = exp.EffortSampled
	case e.Quick:
		mode = exp.EffortQuick
	}
	return exp.Effort{
		Mode: mode, RepeatCap: e.RepeatCap, TileCap: e.TileCap,
		TargetCI: e.TargetCI, IntraCellWorkers: e.IntraCellWorkers,
	}
}

// EffortOf returns the effort a harness's normalized options select: the
// inverse of HarnessCache.Get, and the one conversion from exp.Options
// back to an Effort. Cell routing and worker payloads both start here.
func EffortOf(opts exp.Options) Effort {
	return Effort{
		Quick: opts.Quick, RepeatCap: opts.RepeatCap, TileCap: opts.TileCap,
		Sampled:          opts.Effort.Sampled(),
		TargetCI:         opts.Effort.TargetCI,
		IntraCellWorkers: opts.Effort.IntraCellWorkers,
	}
}

// Epoched reports whether this effort selects the cold-epoch schedule
// — the property cell keys and routing hashes carry, as opposed
// to the worker count, which never changes result bytes.
func (e Effort) Epoched() bool { return e.Sampled || e.IntraCellWorkers > 0 }

// DeprecationHeader is set on responses to requests that selected effort
// through the legacy flat quick/repeat_cap/tile_cap fields instead of the
// effort object. It is a header, not a body field, so legacy response
// bodies stay byte-identical.
const DeprecationHeader = "X-Neuserve-Deprecated"

const deprecationNote = "quick/repeat_cap/tile_cap are deprecated; use the effort object (see docs/API.md)"

// markDeprecated flags a response whose request used the legacy flat
// effort fields without the effort object.
func markDeprecated(h http.Header, legacyUsed bool, we *WireEffort) {
	if legacyUsed && we == nil {
		h.Set(DeprecationHeader, deprecationNote)
	}
}
