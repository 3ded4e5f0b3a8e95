package exp

import "fmt"

// Effort modes. The zero value ("") means exact: full simulation of the
// (possibly cap-truncated) schedule on one machine, in order.
const (
	// EffortExact fully simulates every cell.
	EffortExact = "exact"
	// EffortSampled simulates a seeded, stratified subset of each cell's
	// epochs and scales the totals up with confidence intervals
	// (npu.Config.Sampled; see internal/npu/epoch.go).
	EffortSampled = "sampled"
	// EffortQuick shrinks the sweep grid itself (the legacy Quick flag):
	// two models, one batch, tight caps. Cells still simulate exactly.
	EffortQuick = "quick"
)

// Effort is the one simulation-effort value of the program, threaded end
// to end through neummu.Options, exp.Options, the serve harness cache and
// cell keys, and the cluster wire protocol. The request spellings (the
// effort object and the legacy flat fields) are decoded into it at one
// place, serve.MergeEffort.
type Effort struct {
	// Mode selects "exact" (default), "sampled", or "quick".
	Mode string
	// RepeatCap / TileCap truncate repeated layers and per-layer tiles;
	// zero keeps the harness defaults, negative simulates everything.
	RepeatCap int
	TileCap   int
	// TargetCI is the requested relative 95% CI half-width for sampled
	// mode (0 = 0.05); it sizes the sampling fraction.
	TargetCI float64
}

// Sampled reports whether the effort selects statistical simulation.
func (e Effort) Sampled() bool { return e.Mode == EffortSampled }

// Quick reports whether the effort selects the shrunken smoke grid.
func (e Effort) Quick() bool { return e.Mode == EffortQuick }

// Identity is the effort's canonical identity: everything that can change
// a result's bytes and nothing else — the mode (with "exact" spelled as
// the zero value), the caps and TargetCI. Cell keys, figure keys and
// CellHash64 are all built from it.
func (e Effort) Identity() Effort {
	if e.Mode == EffortExact {
		e.Mode = ""
	}
	return e
}

// Validate rejects efforts no engine implements. Unknown modes are an
// error, never a silent default — a caller asking for a mode this
// build does not know must not receive exact results labeled as it.
func (e Effort) Validate() error {
	switch e.Mode {
	case "", EffortExact, EffortSampled, EffortQuick:
	default:
		return fmt.Errorf("unknown effort mode %q (have exact, sampled, quick)", e.Mode)
	}
	if e.TargetCI < 0 || e.TargetCI >= 1 {
		return fmt.Errorf("effort target_ci %g out of range [0, 1)", e.TargetCI)
	}
	if e.TargetCI > 0 && e.Mode != EffortSampled {
		return fmt.Errorf("effort target_ci requires mode \"sampled\" (mode is %q)", e.Mode)
	}
	return nil
}
