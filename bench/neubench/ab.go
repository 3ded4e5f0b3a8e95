package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// e2eMetric is one end_to_end entry of BENCHMARK.json.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(root string) ([]e2eMetric, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

// sideStats summarizes one side's runs of one workload × metric.
type sideStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(xs []float64) sideStats {
	q1, med, q3 := quartiles(xs)
	return sideStats{Median: med, Q1: q1, Q3: q3, Values: xs}
}

type abRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	Base     sideStats `json:"base"`
	Head     sideStats `json:"head"`
	WinFrac  float64   `json:"win_frac"`
	Verdict  string    `json:"verdict"`
}

// runAB compares neuserve built at a git revision against the working
// tree in one session: pairs of runs, alternating which side goes first,
// each pair on its own seed, judged per workload × metric with the bounds
// BENCHMARK.json fixes.
func runAB(args []string) error {
	fs := flag.NewFlagSet("neubench ab", flag.ContinueOnError)
	var c common
	c.register(fs)
	base := fs.String("base", "", "git revision to compare the working tree against (required)")
	pairs := fs.Int("pairs", 10, "pairs of runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs on seed+i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || fs.NArg() > 0 || *pairs < 1 {
		return fmt.Errorf("usage: neubench ab -base <rev> [-pairs n] [-workload w] [-seconds s] [-size full|smoke] [-json file]")
	}
	wls, err := c.workloads()
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	metrics, err := readBenchmark(root)
	if err != nil {
		return err
	}
	work, cleanup, err := c.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	bins := [2]string{filepath.Join(work, "neuserve-base"), filepath.Join(work, "neuserve-head")}
	if err := buildAtRev(root, *base, work, bins[0]); err != nil {
		return err
	}
	if err := buildNeuserve(root, bins[1]); err != nil {
		return err
	}

	printHost()
	runs := map[string]*[2][]*result{}
	for _, w := range wls {
		runs[w.name] = &[2][]*result{}
	}
	for i := 0; i < *pairs; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, w := range wls {
			for _, side := range order {
				o := options{neuserve: bins[side], work: work, seconds: float64(c.seconds), smoke: c.size == "smoke", seed: *seed + int64(i)}
				res, err := runWorkload(w, o, false)
				if err != nil {
					return fmt.Errorf("pair %d, %s, %s: %w", i, w.name, [2]string{"base", "head"}[side], err)
				}
				runs[w.name][side] = append(runs[w.name][side], res)
				fmt.Fprintf(os.Stderr, "pair %d/%d %s %s: failed %d/%d\n", i+1, *pairs, w.name,
					[2]string{"base", "head"}[side], res.Failed, res.Attempted)
			}
		}
	}

	var rows []abRow
	failed := map[string][2]int{}
	differ := map[string][]int64{}
	for _, w := range wls {
		sides := runs[w.name]
		// Same seed, same request bytes: a change that leaves every
		// simulated statistic alone answers with identical bodies.
		for i := range sides[0] {
			if sides[0][i].Digests[0] != sides[1][i].Digests[0] {
				differ[w.name] = append(differ[w.name], sides[0][i].Seed)
			}
		}
		if d := differ[w.name]; len(d) > 0 {
			fmt.Printf("%-11s response bodies differ between base and head on seeds %v\n", w.name, d)
		} else {
			fmt.Printf("%-11s response bodies identical on all %d seeds\n", w.name, len(sides[0]))
		}
		var f [2]int
		for s := range sides {
			for _, r := range sides[s] {
				f[s] += r.Failed
			}
		}
		failed[w.name] = f
		for _, m := range metrics {
			var vals [2][]float64
			for s := range sides {
				for _, r := range sides[s] {
					mv, ok := r.metric(m.Name)
					if !ok {
						return fmt.Errorf("%s: run printed no %s", w.name, m.Name)
					}
					vals[s] = append(vals[s], mv.Value)
				}
			}
			verdict, win, err := judge(vals[0], vals[1], m.Better == "lower", m.Bound)
			if err != nil {
				return err
			}
			if verdict == improved && f[1] > f[0] {
				verdict = unchanged // a gain does not count when head failed more
			}
			row := abRow{Workload: w.name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				Base: summarize(vals[0]), Head: summarize(vals[1]), WinFrac: win, Verdict: verdict}
			rows = append(rows, row)
			fmt.Printf("%-11s %-22s base %10.4g [%.4g, %.4g]  head %10.4g [%.4g, %.4g]  wins %.2f  %s\n",
				row.Workload, row.Metric, row.Base.Median, row.Base.Q1, row.Base.Q3,
				row.Head.Median, row.Head.Q1, row.Head.Q3, row.WinFrac, row.Verdict)
		}
		if f[1] > f[0] {
			fmt.Printf("%-11s head failed %d requests against base %d: no gain on this workload counts\n", w.name, f[1], f[0])
		}
	}
	if c.jsonOut != "" {
		return writeJSON(c.jsonOut, map[string]any{
			"host": hostInfo(), "base": *base, "pairs": *pairs, "seconds": c.seconds, "size": c.size,
			"failed": failed, "bodies_differ_on_seeds": differ, "rows": rows,
		})
	}
	return nil
}

// buildAtRev builds cmd/neuserve as of a git revision, from a temporary
// worktree that is removed again.
func buildAtRev(root, rev, work, out string) error {
	wt := filepath.Join(work, "base-src")
	if b, err := exec.Command("git", "-C", root, "worktree", "add", "--detach", wt, rev).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %w\n%s", rev, err, b)
	}
	defer exec.Command("git", "-C", root, "worktree", "remove", "--force", wt).Run()
	return buildNeuserve(wt, out)
}
