// Command benchgate is the performance-regression gate: it measures the
// pinned macro-benchmarks at a base commit and in the working tree on
// the same machine, interleaved, and fails when any of them got more
// than -threshold percent slower.
//
// Usage:
//
//	benchgate -base origin/main              # gate against the merge-base
//	benchgate -base HEAD~1 -threshold 15
//
// The base side is the merge-base of HEAD and -base (the ref itself when
// it is an ancestor of HEAD), checked out with `git worktree add
// --detach` in a temporary directory that is always removed. The pinned
// packages' test binaries are built on both sides, then run alternately
// for six rounds at GOMAXPROCS=1: in each round every benchmark runs on
// both sides back to back, and the side that goes first alternates from
// round to round, so drift in the machine's speed lands on both sides
// alike. GOMAXPROCS is pinned because the gated benchmarks measure
// single-stream hot-path cost.
//
// Each benchmark's six samples per side are reduced to their minimum
// ns/op and compared min against min. Minimum, not median: scheduling
// hiccups, noisy neighbours and GC pauses only ever add time, so the
// fastest run is the best estimate of the code's cost on the machine,
// and min against min keeps one-sided noise from flapping the gate; the
// threshold absorbs the rest. A benchmark that exists at the base but
// not at HEAD fails the gate, since a vanished benchmark would otherwise
// un-gate itself; one that is new at HEAD is reported and not gated.
//
// Measuring the reference in the same job, rather than reading a floor
// recorded on another day, is CounterPoint's point: check the claim on
// the machine every time.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pinned lists the gated benchmarks per package: the macro-benchmarks
// whose numbers BENCH_hotpath.json, BENCH_serve.json and
// BENCH_cluster.json record.
var pinned = []struct{ pkg, bench string }{
	{"./internal/exp", "BenchmarkDenseSuiteSerial$"},
	{"./internal/serve", "BenchmarkServeSweepThroughput$"},
	{"./internal/cluster", "BenchmarkClusterSweep$"},
}

const (
	rounds    = 6
	benchtime = "3x"
)

// benchLine matches one Go benchmark result line, e.g.
//
//	BenchmarkDenseSuiteSerial-4   3   1212930572 ns/op   12 B/op ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// procSuffix is the -N GOMAXPROCS suffix Go appends to benchmark names
// on multi-proc runs (absent at GOMAXPROCS=1). It is stripped so runs at
// different widths still match.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse appends every ns/op sample in r's `go test -bench` output to
// samples, keyed by benchmark name.
func parse(r io.Reader, samples map[string][]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		samples[name] = append(samples[name], ns)
	}
	return sc.Err()
}

// row is one benchmark's comparison.
type row struct {
	name       string
	base, head []float64 // per-round samples; nil on a side that lacks it
	delta      float64   // percent change of the minimum, head against base
	won        int       // rounds in which head ran faster than base
	verdict    string    // "ok", "FAIL", "missing" (at HEAD) or "new" (at HEAD)
}

// compare gates head against base: a benchmark whose minimum slowed by
// more than threshold percent, or that exists at base but not at head,
// fails. It returns one row per benchmark, sorted by name.
func compare(base, head map[string][]float64, threshold float64) (rows []row, failed bool) {
	names := map[string]bool{}
	for n := range base {
		names[n] = true
	}
	for n := range head {
		names[n] = true
	}
	for n := range names {
		r := row{name: n, base: base[n], head: head[n]}
		switch {
		case r.head == nil:
			r.verdict = "missing"
			failed = true
		case r.base == nil:
			r.verdict = "new"
		default:
			b, h := slices.Min(r.base), slices.Min(r.head)
			r.delta = (h - b) / b * 100
			for i := 0; i < len(r.base) && i < len(r.head); i++ {
				if r.head[i] < r.base[i] {
					r.won++
				}
			}
			r.verdict = "ok"
			if r.delta > threshold {
				r.verdict = "FAIL"
				failed = true
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows, failed
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// fmtNS renders a duration in ns to four significant digits or so.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}

// render writes the comparison table, benchstat style.
func render(w io.Writer, rows []row, threshold float64) {
	fmt.Fprintf(w, "%-40s %10s %10s %10s %10s %8s %5s  %s\n",
		"name", "base min", "base med", "head min", "head med", "delta", "won", "verdict")
	side := func(xs []float64) (string, string) {
		if xs == nil {
			return "-", "-"
		}
		return fmtNS(slices.Min(xs)), fmtNS(median(xs))
	}
	for _, r := range rows {
		bmin, bmed := side(r.base)
		hmin, hmed := side(r.head)
		delta, won := "-", "-"
		if r.base != nil && r.head != nil {
			delta = fmt.Sprintf("%+.1f%%", r.delta)
			won = fmt.Sprintf("%d/%d", r.won, min(len(r.base), len(r.head)))
		}
		fmt.Fprintf(w, "%-40s %10s %10s %10s %10s %8s %5s  %s\n",
			r.name, bmin, bmed, hmin, hmed, delta, won, r.verdict)
	}
	fmt.Fprintf(w, "delta is min against min; a benchmark fails above +%.0f%% or when missing at HEAD\n", threshold)
}

// git runs git in dir and returns its trimmed stdout.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// side is one tree under measurement.
type side struct {
	name    string
	root    string   // the module root
	bins    []string // test binary per pinned package
	samples map[string][]float64
}

// build compiles the pinned packages' test binaries of s into dir.
func (s *side) build(ctx context.Context, dir string) error {
	for _, p := range pinned {
		bin := filepath.Join(dir, s.name+"-"+filepath.Base(p.pkg)+".test")
		cmd := exec.CommandContext(ctx, "go", "test", "-c", "-o", bin, p.pkg)
		cmd.Dir = s.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("%s: building %s: %v\n%s", s.name, p.pkg, err, out)
		}
		s.bins = append(s.bins, bin)
	}
	return nil
}

// run runs pinned benchmark i of s once, at GOMAXPROCS=1, from its
// package directory as `go test` would, and records the samples.
func (s *side) run(ctx context.Context, i int) error {
	p := pinned[i]
	cmd := exec.CommandContext(ctx, s.bins[i], "-test.run=^$", "-test.bench="+p.bench,
		"-test.benchtime="+benchtime, "-test.count=1", "-test.timeout=10m")
	cmd.Dir = filepath.Join(s.root, p.pkg)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %s: %v\n%s%s", s.name, p.pkg, err, out, stderr.String())
	}
	if err := parse(bytes.NewReader(out), s.samples); err != nil {
		return fmt.Errorf("%s: %s: %v", s.name, p.pkg, err)
	}
	return nil
}

// gate measures the merge-base of HEAD and baseRef against the working
// tree and reports whether a pinned benchmark regressed.
func gate(ctx context.Context, baseRef string, threshold float64) (failed bool, err error) {
	root, err := git(ctx, ".", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	baseSHA, err := git(ctx, root, "merge-base", "HEAD", baseRef)
	if err != nil {
		return false, err
	}
	headSHA, err := git(ctx, root, "rev-parse", "HEAD")
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "base")
	if _, err := git(ctx, root, "worktree", "add", "--detach", wt, baseSHA); err != nil {
		return false, err
	}
	defer func() {
		// Cleanup must run even after an interrupt cancelled ctx.
		if _, rmErr := git(context.Background(), root, "worktree", "remove", "--force", wt); rmErr != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", rmErr)
		}
	}()

	base := &side{name: "base", root: wt, samples: map[string][]float64{}}
	head := &side{name: "head", root: root, samples: map[string][]float64{}}
	for _, s := range []*side{base, head} {
		if err := s.build(ctx, tmp); err != nil {
			return false, err
		}
	}
	fmt.Printf("benchgate: base %.12s (merge-base of HEAD and %s) vs head %.12s (working tree)\n",
		baseSHA, baseRef, headSHA)
	fmt.Printf("benchgate: %d interleaved rounds, GOMAXPROCS=1, -benchtime %s\n", rounds, benchtime)
	for r := 0; r < rounds; r++ {
		order := []*side{base, head}
		if r%2 == 1 {
			order = []*side{head, base}
		}
		fmt.Fprintf(os.Stderr, "benchgate: round %d/%d (%s first)\n", r+1, rounds, order[0].name)
		// The two sides of one benchmark run back to back, so the pair
		// sees the same machine.
		for i := range pinned {
			for _, s := range order {
				if err := s.run(ctx, i); err != nil {
					return false, err
				}
			}
		}
	}
	if len(base.samples) == 0 {
		return false, fmt.Errorf("no pinned benchmark ran at base %.12s", baseSHA)
	}
	rows, failed := compare(base.samples, head.samples, threshold)
	render(os.Stdout, rows, threshold)
	return failed, nil
}

func main() {
	baseRef := flag.String("base", "", "git ref to measure against (its merge-base with HEAD); required")
	threshold := flag.Float64("threshold", 15, "maximum tolerated slowdown in percent")
	flag.Parse()
	if *baseRef == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -base <ref> [-threshold percent]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	start := time.Now()
	failed, err := gate(ctx, *baseRef, *threshold)
	stop()
	fmt.Printf("benchgate: wall %s\n", time.Since(start).Round(time.Second))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: a pinned benchmark slowed by more than %.0f%% or is missing at HEAD\n", *threshold)
		os.Exit(1)
	}
}
