package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neummu/internal/exp"
)

// TestRenderEveryFigure renders every figure in quick mode; any harness
// regression or formatting panic fails here before it reaches a user.
func TestRenderEveryFigure(t *testing.T) {
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}})
	for _, f := range Registry() {
		var buf bytes.Buffer
		if err := Render(h, &buf, f.Name); err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
		if !strings.HasPrefix(buf.String(), "\n"+f.Title+"\n") {
			t.Errorf("figure %s: output does not start with its section header", f.Name)
		}
	}
}

// TestRenderUnknownFigure: an unknown figure must be rejected with an
// error that lists every valid figure name (derived from the registry, so
// the list can never go stale).
func TestRenderUnknownFigure(t *testing.T) {
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}})
	err := Render(h, &bytes.Buffer{}, "fig99")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, f := range Registry() {
		if !strings.Contains(err.Error(), f.Name) {
			t.Errorf("unknown-figure error omits %q: %v", f.Name, err)
		}
	}
}

// TestFigureRegistryIndexed: every figure in the registry must be indexed
// in EXPERIMENTS.md as a `-fig` entry, and the registry must be free of
// duplicates — the registry is the single source of truth, and this
// check keeps the document from drifting away from it.
func TestFigureRegistryIndexed(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	seen := map[string]bool{}
	for _, f := range Registry() {
		if seen[f.Name] {
			t.Errorf("figure %q registered twice", f.Name)
		}
		seen[f.Name] = true
		if !strings.Contains(text, "`"+f.Name+"`") {
			t.Errorf("figure %q is not indexed in EXPERIMENTS.md", f.Name)
		}
		if f.Title == "" || f.Render == nil {
			t.Errorf("figure %q has an incomplete registry entry", f.Name)
		}
	}
}

// TestWriteFiles: the renderer-to-file helper must emit, per figure,
// exactly the bytes Render streams — the contract `paperfigs -out` and
// the service's artifact path both rely on.
func TestWriteFiles(t *testing.T) {
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}})
	dir := t.TempDir()
	names := []string{"table1", "fig8"}
	if err := WriteFiles(h, filepath.Join(dir, "figs"), names); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, "figs", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := Render(h, &want, name); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: file bytes differ from streamed render", name)
		}
	}
	if err := WriteFiles(h, dir, []string{"nope"}); err == nil {
		t.Error("unknown figure name accepted by WriteFiles")
	}
}
