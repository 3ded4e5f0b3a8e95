package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"neummu/internal/exp"
)

func TestRunAllMMUKinds(t *testing.T) {
	for _, kind := range []string{"oracle", "iommu", "neummu", "custom"} {
		err := run("CNN-1", 1, kind, "4KB", 32, 8, true, 2048, 1, 2, false, false)
		if err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
	}
}

func TestRunLargePages(t *testing.T) {
	if err := run("RNN-2", 1, "neummu", "2MB", 128, 32, true, 2048, 1, 2, false, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpatial(t *testing.T) {
	if err := run("CNN-1", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 2, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	if err := runJSON("CNN-1", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 2, false, true); err != nil {
		t.Fatal(err)
	}
	if err := runJSON("VGG", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 2, false, true); err == nil {
		t.Fatal("unknown model accepted by JSON path")
	}
	if err := runJSON("CNN-1", 1, "neummu", "3MB", 128, 32, true, 2048, 1, 2, false, true); err == nil {
		t.Fatal("bad page size accepted by JSON path")
	}
}

func TestRunSweepModes(t *testing.T) {
	for _, kind := range []string{"oracle", "iommu", "neummu", "custom"} {
		err := runSweep([]string{"CNN-1", "RNN-1"}, []int{1}, kind, "4KB",
			32, 8, true, 2048, 1, 2, 0, exp.Effort{}, false, true, false)
		if err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
	}
}

func TestRunSweepRejectsBadInput(t *testing.T) {
	if err := runSweep([]string{"CNN-1"}, []int{1}, "neummu", "4KB",
		32, 8, true, 2048, 1, 2, 0, exp.Effort{}, true, true, false); err == nil {
		t.Fatal("-spatial accepted in sweep mode")
	}
	if err := runSweep([]string{"CNN-1"}, []int{1}, "neummu", "4KB",
		32, 8, true, 2048, 1, 2, 0, exp.Effort{}, false, false, false); err == nil {
		t.Fatal("-oracle-baseline=false accepted in sweep mode")
	}
	if err := runSweep([]string{"CNN-1"}, []int{1}, "custom", "4KB",
		32, 8, true, 0, 1, 2, 0, exp.Effort{}, false, true, false); err == nil {
		t.Fatal("-tlb 0 accepted in custom sweep mode")
	}
	if err := runSweep([]string{"VGG"}, []int{1}, "neummu", "4KB",
		32, 8, true, 2048, 1, 2, 0, exp.Effort{}, false, true, false); err == nil {
		t.Fatal("unknown model accepted in sweep mode")
	}
	if err := runSweep([]string{"CNN-1"}, []int{1}, "tlb-only", "4KB",
		32, 8, true, 2048, 1, 2, 0, exp.Effort{}, false, true, false); err == nil {
		t.Fatal("unknown MMU kind accepted in sweep mode")
	}
	if _, err := parseBatches("1,x", 1); err == nil {
		t.Fatal("bad batch list accepted")
	}
	if got, err := parseBatches("", 7); err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("empty batch list = %v, %v", got, err)
	}
}

func TestEffortModes(t *testing.T) {
	// The unified effort knobs thread through sweep mode via exp.Options.
	for _, mode := range []string{exp.EffortExact, exp.EffortQuick} {
		if err := runSweep([]string{"CNN-1"}, []int{1}, "neummu", "4KB",
			32, 8, true, 2048, 1, 2, 0, exp.Effort{Mode: mode}, false, true, false); err != nil {
			t.Fatalf("%s sweep: %v", mode, err)
		}
	}
	// The retired sampled mode is an unknown mode to -effort, which main
	// validates before anything runs.
	if err := (exp.Effort{Mode: "sampled"}).Validate(); err == nil || !strings.Contains(err.Error(), "unknown effort mode") {
		t.Fatalf("-effort sampled: %v, want an unknown effort mode error", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run("VGG", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 1, false, false); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := run("CNN-1", 1, "tlb-only", "4KB", 128, 32, true, 2048, 1, 1, false, false); err == nil {
		t.Fatal("unknown MMU kind accepted")
	}
	if err := run("CNN-1", 1, "neummu", "1GB", 128, 32, true, 2048, 1, 1, false, false); err == nil {
		t.Fatal("unknown page size accepted")
	}
}

// TestMMUFlagsValidatedAsWirePoints: the MMU flags are checked as the
// wire checks a point, in both modes. -tlb below 1 and a custom point
// without walkers are errors, never a panic or a silent preset.
func TestMMUFlagsValidatedAsWirePoints(t *testing.T) {
	cases := []struct {
		kind      string
		ptws, tlb int
	}{
		{"custom", 32, -5},
		{"custom", 32, 0},
		{"neummu", 128, 0},
		{"iommu", 128, -1},
		{"custom", 0, 2048},
	}
	for _, c := range cases {
		if err := run("CNN-1", 1, c.kind, "4KB", c.ptws, 8, true, c.tlb, 1, 1, false, true); err == nil {
			t.Errorf("-mmu %s -ptws %d -tlb %d accepted", c.kind, c.ptws, c.tlb)
		}
		if err := runJSON("CNN-1", 1, c.kind, "4KB", c.ptws, 8, true, c.tlb, 1, 1, false, true); err == nil {
			t.Errorf("-json -mmu %s -ptws %d -tlb %d accepted", c.kind, c.ptws, c.tlb)
		}
		if err := runSweep([]string{"CNN-1"}, []int{1}, c.kind, "4KB",
			c.ptws, 8, true, c.tlb, 1, 1, 0, exp.Effort{}, false, true, false); err == nil {
			t.Errorf("sweep -mmu %s -ptws %d -tlb %d accepted", c.kind, c.ptws, c.tlb)
		}
	}
}

// TestTLBFlagSizesEveryKind: -tlb resizes the TLB of the iommu and
// neummu presets too, as tlb_entries does on the wire.
func TestTLBFlagSizesEveryKind(t *testing.T) {
	for _, kind := range []string{"iommu", "neummu"} {
		small := stdout(t, func() error {
			return runJSON("CNN-1", 1, kind, "4KB", 128, 32, true, 8, 1, 4, false, true)
		})
		base := stdout(t, func() error {
			return runJSON("CNN-1", 1, kind, "4KB", 128, 32, true, 2048, 1, 4, false, true)
		})
		if small == base {
			t.Errorf("%s: -tlb 8 gave the 2048-entry result:\n%s", kind, small)
		}
	}
}

// TestJSONHonorsOracleBaselineFlag: -json -oracle-baseline=false runs
// the cell alone and prints no oracle fields; the default keeps them.
func TestJSONHonorsOracleBaselineFlag(t *testing.T) {
	run := func(compare bool) map[string]any {
		out := stdout(t, func() error {
			return runJSON("CNN-1", 1, "iommu", "4KB", 128, 32, true, 2048, 1, 2, false, compare)
		})
		var m map[string]any
		if err := json.Unmarshal([]byte(out), &m); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return m
	}
	with, without := run(true), run(false)
	for _, key := range []string{"oracle_cycles", "normalized_perf"} {
		if _, ok := with[key]; !ok {
			t.Errorf("default -json output lacks %q", key)
		}
		if _, ok := without[key]; ok {
			t.Errorf("-oracle-baseline=false -json output has %q", key)
		}
	}
	if with["cycles"] != without["cycles"] {
		t.Errorf("cycles = %v with the oracle baseline, %v without", with["cycles"], without["cycles"])
	}
}

// stdout returns what f prints to standard output.
func stdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	saved := os.Stdout
	os.Stdout = w
	err = f()
	os.Stdout = saved
	w.Close()
	s := <-out
	if err != nil {
		t.Fatal(err)
	}
	return s
}
