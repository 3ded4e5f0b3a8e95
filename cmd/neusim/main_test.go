package main

import (
	"testing"

	"neummu/internal/exp"
)

func TestRunAllMMUKinds(t *testing.T) {
	for _, kind := range []string{"oracle", "iommu", "neummu", "custom"} {
		err := run("CNN-1", 1, kind, "4KB", 32, 8, true, 2048, 1, 2, exp.Effort{}, false, false)
		if err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
	}
}

func TestRunLargePages(t *testing.T) {
	if err := run("RNN-2", 1, "neummu", "2MB", 128, 32, true, 2048, 1, 2, exp.Effort{}, false, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpatial(t *testing.T) {
	if err := run("CNN-1", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 2, exp.Effort{}, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	if err := runJSON("CNN-1", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 2, exp.Effort{}, false); err != nil {
		t.Fatal(err)
	}
	if err := runJSON("VGG", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 2, exp.Effort{}, false); err == nil {
		t.Fatal("unknown model accepted by JSON path")
	}
	if err := runJSON("CNN-1", 1, "neummu", "3MB", 128, 32, true, 2048, 1, 2, exp.Effort{}, false); err == nil {
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
	// The unified effort knobs thread through both entry points: sweep mode
	// via exp.Options, single-run mode via npu.Config directly.
	if err := runSweep([]string{"CNN-1"}, []int{1}, "neummu", "4KB",
		32, 8, true, 2048, 1, 2, 0, exp.Effort{Mode: exp.EffortExact}, false, true, false); err != nil {
		t.Fatalf("exact sweep: %v", err)
	}
	if err := runSweep([]string{"CNN-1"}, []int{1}, "neummu", "4KB",
		32, 8, true, 2048, 1, 2, 0, exp.Effort{Mode: exp.EffortSampled}, false, true, false); err != nil {
		t.Fatalf("sampled sweep: %v", err)
	}
	if err := run("CNN-1", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 2,
		exp.Effort{Mode: exp.EffortSampled}, false, true); err != nil {
		t.Fatalf("sampled single run: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run("VGG", 1, "neummu", "4KB", 128, 32, true, 2048, 1, 1, exp.Effort{}, false, false); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := run("CNN-1", 1, "tlb-only", "4KB", 128, 32, true, 2048, 1, 1, exp.Effort{}, false, false); err == nil {
		t.Fatal("unknown MMU kind accepted")
	}
	if err := run("CNN-1", 1, "neummu", "1GB", 128, 32, true, 2048, 1, 1, exp.Effort{}, false, false); err == nil {
		t.Fatal("unknown page size accepted")
	}
}
