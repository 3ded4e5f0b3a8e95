// Command paperfigs regenerates the paper's tables and figures as text,
// plus the repository's beyond-the-paper studies.
//
// Usage:
//
//	paperfigs                # regenerate everything on all CPUs
//	paperfigs -workers 1     # same output, the serial reference run
//	paperfigs -workers 4     # same output, at most 4 simulations at once
//	paperfigs -fig fig8      # one figure
//	paperfigs -fig list      # print the figure registry (name + title)
//	paperfigs -quick         # reduced sweep (seconds, for smoke tests)
//	paperfigs -out figs/     # one file per figure instead of stdout
//	paperfigs -cluster http://coord:8077
//	                         # delegate sweep cells to a neuserve cluster
//	                         # (remote-safe figures; see -fig list)
//
// The grid-shaped figures run on the design-space sweep engine
// (internal/exp), so -workers changes wall-clock time only: row ordering
// and values are byte-identical at every worker count. The single-layer
// traces (fig14, kvcache) and the iterative demand-paging studies
// (steady, oversub) are inherently sequential and run inline regardless
// of -workers.
//
// The figure registry (internal/figures) is the single source of truth
// for figure names and section titles: `-fig list`, the unknown-figure
// error, the EXPERIMENTS.md cross-check, and the neuserve HTTP service
// all derive from it, and -out writes each figure to <dir>/<name>.txt
// through the same renderer-to-file helper the service's artifact path
// uses — the file bytes equal the stdout bytes for that figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"neummu/internal/cluster"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/profiling"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate ('all', 'list', or comma-separated names)")
		out        = flag.String("out", "", "write each figure to <dir>/<name>.txt instead of stdout")
		quick      = flag.Bool("quick", false, "reduced sweep for smoke testing")
		effort     = flag.String("effort", "", "effort mode: exact or quick; empty = exact (-quick is the legacy spelling of quick)")
		parallel   = flag.Bool("parallel", false, "fan sweeps out over all CPUs (the default; kept for explicitness)")
		workers    = flag.Int("workers", 0, "exact simulation-worker count (0 = all CPUs, 1 = serial reference)")
		clusterURL = flag.String("cluster", "", "delegate sweep evaluation to a neuserve cluster coordinator at this base URL (remote-safe figures only)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (hot-path diagnosis)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *fig == "list" {
		for _, f := range figures.Registry() {
			fmt.Printf("%-12s %s\n", f.Name, f.Title)
		}
		return
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile, "paperfigs")
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	defer stopProfiles()
	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}

	// Workers follows exp.Options semantics: 0 selects GOMAXPROCS, 1 is
	// the serial reference run that parallel output is validated against.
	// -parallel is an explicit alias for -workers 0, so combining it with
	// a bound is contradictory.
	if *parallel && *workers != 0 {
		fail(fmt.Errorf("-parallel (all CPUs) conflicts with -workers %d", *workers))
	}
	// The effort flags assemble the same exp.Effort the library and
	// service APIs take; -quick is the legacy spelling of -effort quick,
	// so it cannot be combined with another mode.
	eff := exp.Effort{Mode: *effort}
	if *quick {
		if eff.Mode != "" && eff.Mode != exp.EffortQuick {
			fail(fmt.Errorf("-quick conflicts with -effort %s", eff.Mode))
		}
		eff.Mode = exp.EffortQuick
	}
	if err := eff.Validate(); err != nil {
		fail(err)
	}
	opts := exp.Options{Workers: *workers, Effort: eff}
	if *clusterURL != "" {
		opts.Remote = cluster.SweepFunc(*clusterURL, nil)
	}
	h := exp.New(opts)
	targets := figures.Names()
	if *fig != "all" {
		targets = strings.Split(*fig, ",")
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
	} else if *clusterURL != "" {
		// The full registry includes studies the wire protocol cannot
		// carry; -cluster without -fig runs the remote-safe subset.
		targets = figures.RemoteNames()
		fmt.Fprintf(os.Stderr, "paperfigs: -cluster: rendering the remote-safe figures (%s)\n",
			strings.Join(targets, ", "))
	}
	if *clusterURL != "" {
		for _, f := range targets {
			if !figures.RemoteSafe(f) {
				fail(fmt.Errorf("figure %q cannot run against a cluster (needs local per-component stats); remote-safe figures: %s",
					f, strings.Join(figures.RemoteNames(), ", ")))
			}
		}
	}
	if *out != "" {
		if err := figures.WriteFiles(h, *out, targets); err != nil {
			fail(err)
		}
		return
	}
	for _, f := range targets {
		if err := figures.Render(h, os.Stdout, f); err != nil {
			fail(fmt.Errorf("%s: %v", f, err))
		}
	}
}
