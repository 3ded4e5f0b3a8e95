package serve

import (
	"fmt"

	"neummu/internal/exp"
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
	// Mode is "exact" (the default) or "quick", or the retired "sampled"
	// (see effortSampled). Unknown modes are rejected with a bad_request
	// envelope, never silently defaulted.
	Mode string `json:"mode,omitempty"`
	// RepeatCap / TileCap override the legacy flat caps when non-zero.
	RepeatCap int `json:"repeat_cap,omitempty"`
	TileCap   int `json:"tile_cap,omitempty"`
	// TargetCI belongs to the retired sampled mode: accepted only with
	// "mode":"sampled" and in [0, 1), and otherwise ignored.
	TargetCI float64 `json:"target_ci,omitempty"`
	// IntraCellWorkers is a retired knob, accepted so that old payloads
	// still decode under DisallowUnknownFields, and otherwise ignored: a
	// request that sets it is answered with, and cached under, the exact
	// cell, plus the deprecation header. A negative value is still a
	// bad request.
	IntraCellWorkers int `json:"intra_cell_workers,omitempty"`
}

// effortSampled is the retired sampled mode, kept on the wire as a
// deprecated alias of exact: a request that names it is answered with,
// and cached under, the exact cell, plus the deprecation header.
const effortSampled = "sampled"

// Effort is exp.Effort, kept under this name for callers that compile
// against the serve package.
type Effort = exp.Effort

// MergeEffort folds a request's effort object and its legacy flat fields
// into the one exp.Effort that selects its harness: the only place the
// legacy spelling is decoded. The effort object wins wherever both speak:
// an explicit mode replaces the legacy quick flag, and non-zero caps
// replace the flat caps. "exact" and the retired "sampled" are
// canonicalized to the zero mode so every spelling of the default shares
// every key, and the retired target_ci and intra_cell_workers are
// dropped. Unknown modes and out-of-range knobs are an error (a
// bad_request envelope on every endpoint), never a silent default.
func MergeEffort(we *WireEffort, quick bool, repeatCap, tileCap int) (exp.Effort, error) {
	e := exp.Effort{RepeatCap: repeatCap, TileCap: tileCap}
	if quick {
		e.Mode = exp.EffortQuick
	}
	if we == nil {
		return e, nil
	}
	mode := we.Mode
	if mode == effortSampled || mode == exp.EffortExact {
		mode = ""
	}
	if err := (exp.Effort{Mode: mode}).Validate(); err != nil {
		return e, err
	}
	if we.TargetCI < 0 || we.TargetCI >= 1 {
		return e, fmt.Errorf("effort target_ci %g out of range [0, 1)", we.TargetCI)
	}
	if we.TargetCI > 0 && we.Mode != effortSampled {
		return e, fmt.Errorf("effort target_ci requires mode \"sampled\" (mode is %q)", we.Mode)
	}
	if we.IntraCellWorkers < 0 {
		return e, fmt.Errorf("effort intra_cell_workers %d is negative", we.IntraCellWorkers)
	}
	if we.Mode != "" {
		e.Mode = mode
	}
	if we.RepeatCap != 0 {
		e.RepeatCap = we.RepeatCap
	}
	if we.TileCap != 0 {
		e.TileCap = we.TileCap
	}
	return e, nil
}

// DeprecationHeader is set on responses to requests that selected effort
// only through the legacy flat fields (quick/repeat_cap/tile_cap in a
// JSON body, quick on the figure endpoint) instead of the effort object,
// or that named the retired sampled mode or set the ignored
// intra_cell_workers. It is a header, not a body field, so legacy
// response bodies stay byte-identical.
const DeprecationHeader = "X-Neuserve-Deprecated"

const deprecationNote = "quick/repeat_cap/tile_cap are deprecated (use the effort object), mode \"sampled\" is answered exactly, and intra_cell_workers is ignored; see docs/API.md"

// requestEffort is MergeEffort plus the one deprecation rule, shared by
// all four endpoints: a request is deprecated when it sets a legacy flat
// field and no effort object, names the sampled mode, or sets
// intra_cell_workers.
func requestEffort(we *WireEffort, quick bool, repeatCap, tileCap int) (e exp.Effort, deprecated bool, err error) {
	e, err = MergeEffort(we, quick, repeatCap, tileCap)
	if we == nil {
		return e, quick || repeatCap != 0 || tileCap != 0, err
	}
	return e, we.Mode == effortSampled || we.IntraCellWorkers != 0, err
}
