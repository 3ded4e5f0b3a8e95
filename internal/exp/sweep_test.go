package exp

import (
	"fmt"
	"strings"
	"testing"

	"neummu/internal/core"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// sweepOptions is the reduced grid the determinism tests run on: small
// enough to finish in seconds, large enough that parallel workers really
// interleave.
func sweepOptions(workers int) Options {
	return Options{
		Models:  []string{"CNN-1", "RNN-1"},
		Batches: []int{1, 4},
		Effort:  Effort{RepeatCap: 1, TileCap: 4},
		Workers: workers,
	}
}

var determinismAxes = Axes{
	Kinds:     []core.Kind{core.IOMMU, core.Custom},
	PTWs:      []int{8, 32},
	PRMBSlots: []int{1, 8},
	Paths:     []walker.PathKind{walker.PathNone},
}

// fingerprint renders every row of a sweep plus two converted figures to
// one string, so runs can be compared byte-for-byte.
func fingerprint(t *testing.T, workers int) string {
	t.Helper()
	h := New(sweepOptions(workers))
	var sb strings.Builder
	rows, err := h.Sweep(determinismAxes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s perf=%.12f cycles=%d walks=%d\n",
			r.Point.Label(), r.Perf, r.Result.Cycles, r.Result.Walker.WalksStarted)
	}
	fig8, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig8 {
		fmt.Fprintf(&sb, "fig8 %s b%02d %.12f\n", r.Model, r.Batch, r.Perf)
	}
	fig10, err := h.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig10 {
		fmt.Fprintf(&sb, "fig10 s%d %s b%02d %.12f\n", r.Param, r.Model, r.Batch, r.Perf)
	}
	return sb.String()
}

// TestSweepDeterminism is the engine's core contract: a sweep run on one
// worker and the same sweep fanned out over many workers produce
// byte-identical row ordering and values.
func TestSweepDeterminism(t *testing.T) {
	serial := fingerprint(t, 1)
	if serial == "" {
		t.Fatal("empty serial fingerprint")
	}
	for _, workers := range []int{2, 4, 8} {
		if got := fingerprint(t, workers); got != serial {
			t.Fatalf("workers=%d diverged from serial run:\nserial:\n%s\nparallel:\n%s",
				workers, serial, got)
		}
	}
}

func TestSweepGridOrder(t *testing.T) {
	ax := determinismAxes.normalized(sweepOptions(1).normalized())
	pts := determinismAxes.points(sweepOptions(1).normalized())
	// IOMMU collapses the walker axes to one point per (model, batch);
	// Custom expands PTWs × PRMBSlots.
	cells := len(ax.Models) * len(ax.Batches)
	want := cells + len(ax.PTWs)*len(ax.PRMBSlots)*cells
	if len(pts) != want {
		t.Fatalf("expanded %d points, want %d", len(pts), want)
	}
	// Kind is the outermost axis; model/batch the innermost.
	if pts[0].Kind != core.IOMMU || pts[cells].Kind != core.Custom {
		t.Fatalf("kind axis not outermost: %+v", pts[:cells+1])
	}
	if pts[0].Model != "CNN-1" || pts[0].Batch != 1 || pts[1].Batch != 4 {
		t.Fatalf("batch axis not innermost: %+v %+v", pts[0], pts[1])
	}
	// Within Custom, PTWs is outer of PRMBSlots.
	custom := pts[cells:]
	if custom[0].PTWs != 8 || custom[0].PRMBSlots != 1 || custom[cells].PRMBSlots != 8 {
		t.Fatalf("custom axis order wrong: %+v %+v", custom[0], custom[cells])
	}
	if custom[2*cells].PTWs != 32 {
		t.Fatalf("PTW axis order wrong: %+v", custom[2*cells])
	}
}

func TestSweepDefaults(t *testing.T) {
	h := New(sweepOptions(2))
	rows, err := h.Sweep(Axes{}) // all defaults: NeuMMU, 4K, harness grid
	if err != nil {
		t.Fatal(err)
	}
	if want := len(h.Options().Models) * len(h.Options().Batches); len(rows) != want {
		t.Fatalf("default sweep has %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Point.Kind != core.NeuMMU || r.Point.PageSize != vm.Page4K {
			t.Fatalf("default point = %+v", r.Point)
		}
		if r.Perf <= 0.9 || r.Perf > 1.0001 {
			t.Fatalf("NeuMMU perf out of range: %v", r.Perf)
		}
		if r.Result == nil {
			t.Fatal("missing raw result")
		}
	}
}

func TestSweepOracleCollapsesAxes(t *testing.T) {
	h := New(sweepOptions(2))
	rows, err := h.Sweep(Axes{
		Kinds:      []core.Kind{core.Oracle},
		TLBEntries: []int{128, 2048}, // must collapse: the oracle has no TLB
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(h.Options().Models) * len(h.Options().Batches); len(rows) != want {
		t.Fatalf("oracle sweep has %d rows, want %d (TLB axis not collapsed)", len(rows), want)
	}
	for _, r := range rows {
		if r.Perf != 1.0 {
			t.Fatalf("oracle not normalized to itself: %v", r.Perf)
		}
	}
}

func TestSweepPointMMU(t *testing.T) {
	p := Point{Kind: core.Custom, PageSize: vm.Page4K, PTWs: 16, PRMBSlots: 4,
		PTS: true, Path: walker.PathTPreg, TLBEntries: 512}
	cfg := p.MMU()
	if cfg.Kind != core.Custom || cfg.Walker.NumPTWs != 16 || cfg.Walker.PRMBSlots != 4 ||
		!cfg.Walker.UsePTS || cfg.Walker.Path != walker.PathTPreg || cfg.TLB.Entries != 512 {
		t.Fatalf("custom config = %+v", cfg)
	}
	io := Point{Kind: core.IOMMU, PageSize: vm.Page4K, TLBEntries: 4096}.MMU()
	if io.TLB.Entries != 4096 {
		t.Fatalf("TLB override ignored for IOMMU: %+v", io.TLB)
	}
	oracle := Point{Kind: core.Oracle, PageSize: vm.Page2M}.MMU()
	if oracle.Kind != core.Oracle || oracle.PageSize != vm.Page2M {
		t.Fatalf("oracle config = %+v", oracle)
	}
}

// TestSweepErrorDeterministic: a bad model in the middle of the grid must
// surface the lowest-indexed error at any worker count (the pool
// fail-fasts, but dispatch order guarantees the lowest-indexed failure
// always runs, so the reported error is identical serial vs parallel).
func TestSweepErrorDeterministic(t *testing.T) {
	var msgs []string
	for _, workers := range []int{1, 4} {
		h := New(Options{Models: []string{"CNN-1"}, Batches: []int{1},
			Effort: Effort{RepeatCap: 1, TileCap: 2}, Workers: workers})
		_, err := h.SweepPoints([]Point{
			{Kind: core.NeuMMU, PageSize: vm.Page4K, Model: "CNN-1", Batch: 1},
			{Kind: core.NeuMMU, PageSize: vm.Page4K, Model: "no-such-model", Batch: 1},
			{Kind: core.NeuMMU, PageSize: vm.Page4K, Model: "also-missing", Batch: 1},
		})
		if err == nil {
			t.Fatalf("workers=%d: bad model accepted", workers)
		}
		if !strings.Contains(err.Error(), "no-such-model") {
			t.Fatalf("workers=%d: want the lowest-indexed failure, got %v", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error differs across worker counts: %q vs %q", msgs[0], msgs[1])
	}
}
