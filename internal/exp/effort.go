package exp

import "fmt"

// Effort modes. The zero value ("") means exact: full simulation of the
// (possibly cap-truncated) schedule on one machine, in order.
const (
	// EffortExact fully simulates every cell.
	EffortExact = "exact"
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
	// Mode selects "exact" (default) or "quick".
	Mode string
	// RepeatCap / TileCap truncate repeated layers and per-layer tiles;
	// zero keeps the harness defaults, negative simulates everything.
	RepeatCap int
	TileCap   int
}

// Quick reports whether the effort selects the shrunken smoke grid.
func (e Effort) Quick() bool { return e.Mode == EffortQuick }

// Identity is the effort's canonical identity: everything that can change
// a result's bytes and nothing else — the mode (with "exact" spelled as
// the zero value) and the caps. Cell keys, figure keys and CellHash64 are
// all built from it.
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
	case "", EffortExact, EffortQuick:
		return nil
	}
	return fmt.Errorf("unknown effort mode %q (have exact, quick)", e.Mode)
}
