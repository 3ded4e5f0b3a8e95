package neummu

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the markdown documents whose links the tests keep
// honest (the acceptance contract behind docs/ARCHITECTURE.md: every
// internal link must resolve).
var docFiles = []string{"README.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md", "docs/API.md"}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingAnchor reproduces GitHub's heading-to-anchor slugging closely
// enough for this repository's docs: lowercase, punctuation stripped,
// spaces to hyphens.
func headingAnchor(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsIn collects the anchor slugs of every markdown heading in text.
func anchorsIn(text string) map[string]bool {
	anchors := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			anchors[headingAnchor(strings.TrimLeft(line, "# "))] = true
		}
	}
	return anchors
}

// TestDocsLinksResolve walks every markdown link in the core documents
// and checks that relative targets exist on disk and that fragment links
// point at real headings. External (scheme-qualified) links are skipped:
// CI must not depend on the network.
func TestDocsLinksResolve(t *testing.T) {
	contents := map[string]string{}
	for _, f := range docFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("missing document %s: %v", f, err)
		}
		contents[f] = string(data)
	}
	for _, f := range docFiles {
		dir := filepath.Dir(f)
		for _, m := range mdLink.FindAllStringSubmatch(contents[f], -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			resolved := f // self-link: anchor within the same document
			if path != "" {
				resolved = filepath.Join(dir, path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q (%v)", f, target, err)
					continue
				}
			}
			if frag == "" {
				continue
			}
			text, ok := contents[filepath.ToSlash(resolved)]
			if !ok {
				// Anchor into a file outside the checked set: existence of
				// the file is all we can verify without loading it.
				data, err := os.ReadFile(resolved)
				if err != nil {
					t.Errorf("%s: unreadable anchor target %q", f, target)
					continue
				}
				text = string(data)
			}
			if !anchorsIn(text)[frag] {
				t.Errorf("%s: link %q points at a missing heading anchor", f, target)
			}
		}
	}
}

var jsonFence = regexp.MustCompile("(?s)```json\n(.*?)```")

// TestDocsJSONFencesParse keeps the API reference's examples honest:
// every ```json fence in the checked documents must be valid JSON —
// either one document or NDJSON (one object per line), matching the wire
// protocol's two body shapes. A fence that drifts from real syntax (a
// renamed field is not caught here, but a broken example is) fails CI.
func TestDocsJSONFencesParse(t *testing.T) {
	for _, f := range docFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("missing document %s: %v", f, err)
		}
		for i, m := range jsonFence.FindAllStringSubmatch(string(data), -1) {
			body := strings.TrimSpace(m[1])
			if json.Valid([]byte(body)) {
				continue
			}
			for _, line := range strings.Split(body, "\n") {
				if line = strings.TrimSpace(line); line != "" && !json.Valid([]byte(line)) {
					t.Errorf("%s: json fence %d has an invalid line: %s", f, i, line)
				}
			}
		}
	}
}

// TestDocsCrossLinked: README must link both companion documents, and the
// architecture doc must exist with its core sections — the docs baseline
// this repository's PRs are expected to keep current.
func TestDocsCrossLinked(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EXPERIMENTS.md", "docs/ARCHITECTURE.md", "docs/API.md"} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md does not link %s", want)
		}
	}
	arch0, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch0), "API.md") {
		t.Error("docs/ARCHITECTURE.md does not link docs/API.md")
	}
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{
		"The event queue: registered handlers",
		"Freeze, snapshot sharing",
		"worker model and determinism",
		"transformer data path",
	} {
		if !strings.Contains(string(arch), section) {
			t.Errorf("docs/ARCHITECTURE.md is missing the %q section", section)
		}
	}
}

var (
	citedTest = regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)
	testFunc  = regexp.MustCompile(`(?m)^func (Test[A-Z][A-Za-z0-9_]*)\(`)
)

// TestDocsCiteRealTests: every TestXxx name the README, ARCHITECTURE,
// EXPERIMENTS and ROADMAP documents cite as evidence must be a test
// function somewhere in the tree, so renaming or deleting a test cannot
// leave a document pointing at a check that no longer runs.
func TestDocsCiteRealTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"README.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("missing document %s: %v", f, err)
		}
		for _, name := range citedTest.FindAllString(string(data), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which is not a test function in the tree", f, name)
			}
		}
	}
}
