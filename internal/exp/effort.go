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

// Effort is the unified simulation-effort knob threaded end to end
// through neummu.Options, exp.Options, the serve request types and the
// cluster wire protocol. It subsumes the previously copy-pasted
// Quick/RepeatCap/TileCap triple and adds the sampled-mode and
// intra-cell-parallelism controls.
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

// Epoched reports whether cells run on the cold-epoch schedule —
// the property that must be keyed, as opposed to the worker count,
// which only trades wall-clock time.
func (e Effort) Epoched() bool { return e.IntraCellWorkers > 0 || e.Sampled() }

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
