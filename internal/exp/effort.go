package exp

import "fmt"

// Effort modes. The zero value ("") means exact: full simulation of the
// (possibly cap-truncated) schedule on the engine the other knobs pick.
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
	// IntraCellWorkers, when positive, splits every single-cell
	// simulation across that many cores at epoch barriers. Results are
	// byte-identical for every worker count ≥ 1, but the cold-epoch
	// schedule is a distinct semantics from the serial one and is keyed
	// separately in every cache/store tier.
	IntraCellWorkers int
}

// Sampled reports whether the effort selects statistical simulation.
func (e Effort) Sampled() bool { return e.Mode == EffortSampled }

// Quick reports whether the effort selects the shrunken smoke grid.
func (e Effort) Quick() bool { return e.Mode == EffortQuick }

// Epoched reports whether cells run on the cold-epoch schedule —
// the property that must be keyed, as opposed to the worker count,
// which only trades wall-clock time.
func (e Effort) Epoched() bool { return e.IntraCellWorkers > 0 || e.Sampled() }

// Identity is the effort's canonical identity: everything that can change
// a result's bytes and nothing else. It keeps the mode (with "exact"
// spelled as the zero value), the caps and TargetCI, and reduces
// IntraCellWorkers to the epoched bit — 1 for the cold-epoch schedule, 0
// for the serial one — since the worker count only trades wall-clock
// time. Cell keys, figure keys and CellHash64 are all built from it.
func (e Effort) Identity() Effort {
	epoched := e.Epoched()
	if e.Mode == EffortExact {
		e.Mode = ""
	}
	e.IntraCellWorkers = 0
	if epoched {
		e.IntraCellWorkers = 1
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
	if e.IntraCellWorkers < 0 {
		return fmt.Errorf("effort intra_cell_workers %d is negative", e.IntraCellWorkers)
	}
	if e.TargetCI > 0 && e.Mode != EffortSampled {
		return fmt.Errorf("effort target_ci requires mode \"sampled\" (mode is %q)", e.Mode)
	}
	return nil
}
