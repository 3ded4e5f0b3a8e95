// Command neubench is the repository's benchmark: it measures neuserve end
// to end over loopback HTTP and, with -trace 1, the simulator layer by
// layer in-process.
//
// Usage (from anywhere inside the repository):
//
//	go -C bench/neubench run . -seed 1                 # all workloads, end to end
//	go -C bench/neubench run . -workload warm-hits -trace 1 -json out.json
//	go -C bench/neubench run . ab -base HEAD~1 -pairs 10
//	bash bench/neubench/run.sh -workload dense-cold    # what the benchmark command runs
//
// Each workload runs rounds; a round is a fresh neuserve process on a fresh
// store directory, optional priming, a seeded request list sent in a closed
// loop over at most two keep-alive connections, a /metrics scrape and
// SIGTERM. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads, metrics and protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		err = runAB(os.Args[2:])
	} else {
		err = runBench(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "neubench:", err)
		os.Exit(1)
	}
}

// common holds the flags both modes take.
type common struct {
	workload string
	seconds  int
	size     string
	work     string
	jsonOut  string
}

func (c *common) register(fs *flag.FlagSet) {
	fs.StringVar(&c.workload, "workload", "", "run one workload (default: all of them)")
	fs.IntVar(&c.seconds, "seconds", 25, "measurement budget of one workload run, in seconds")
	fs.StringVar(&c.size, "size", "full", "full, or smoke: a few cells and 2 rounds per workload")
	fs.StringVar(&c.work, "work", "", "directory for store directories and the disk-warm store cache (default: a temporary directory)")
	fs.StringVar(&c.jsonOut, "json", "", "also write the full results, with spans when traced, to this file")
}

func (c *common) workloads() ([]workload, error) {
	if c.size != "full" && c.size != "smoke" {
		return nil, fmt.Errorf("-size must be full or smoke, not %q", c.size)
	}
	if c.workload == "" {
		return allWorkloads, nil
	}
	w, err := workloadByName(c.workload)
	return []workload{w}, err
}

// workDir returns the work directory and a cleanup for it.
func (c *common) workDir() (string, func(), error) {
	if c.work != "" {
		return c.work, func() {}, os.MkdirAll(c.work, 0o777)
	}
	dir, err := os.MkdirTemp("", "neubench-")
	return dir, func() { os.RemoveAll(dir) }, err
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("neubench", flag.ContinueOnError)
	var c common
	c.register(fs)
	seed := fs.Int64("seed", 1, "workload seed: picks the cells and their order")
	traced := fs.Int("trace", 0, "1 = measure the layers (per-layer metrics) instead of end to end")
	bin := fs.String("neuserve", "", "neuserve binary under test (default: build ./cmd/neuserve into a temporary directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	wls, err := c.workloads()
	if err != nil {
		return err
	}
	work, cleanup, err := c.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	if *bin == "" {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		*bin = filepath.Join(work, "neuserve")
		if err := buildNeuserve(root, *bin); err != nil {
			return err
		}
	}
	o := options{neuserve: *bin, work: work, seconds: float64(c.seconds), smoke: c.size == "smoke", seed: *seed}
	printHost()
	var results []*result
	for _, w := range wls {
		res, err := runWorkload(w, o, *traced == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(res)
		results = append(results, res)
	}
	if c.jsonOut != "" {
		if err := writeJSON(c.jsonOut, map[string]any{"host": hostInfo(), "results": results}); err != nil {
			return err
		}
	}
	return printSummary(results)
}

// printResult prints one run's metrics, one per line, by name with unit
// and sample count.
func printResult(r *result) {
	fmt.Printf("%s seed=%d size=%s rounds=%d attempted=%d failed=%d failed_frac=%g correct=%t\n",
		r.Workload, r.Seed, r.Size, r.Rounds, r.Attempted, r.Failed, r.failedFrac(), r.Correct)
	for _, m := range r.Metrics {
		line := fmt.Sprintf("  %-26s %14.6g %-8s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Moves != "" {
			line += "  → " + m.Moves
		}
		fmt.Println(line)
	}
	golden := r.Golden
	if golden == "" {
		golden = "none for this seed and size; rounds must agree"
	}
	fmt.Printf("  digest %s (golden: %s)\n", r.Digests[0], golden)
	for _, n := range r.Notes {
		fmt.Println("  " + n)
	}
}

// printSummary prints the final line: one JSON object with the counts and
// every declared metric. With several workloads, metric names are prefixed with
// the workload.
func printSummary(results []*result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			sum.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

// hostInfo records what every output is measured on.
func hostInfo() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"conns":      conns,
	}
}

func printHost() {
	h := hostInfo()
	fmt.Printf("host %s %s/%s nproc=%d gomaxprocs=%d conns=%d\n", h["go"], h["goos"], h["goarch"], h["nproc"], h["gomaxprocs"], h["conns"])
}

// repoRoot walks up from the working directory to the module root of the
// repository (go.mod declaring "module neummu").
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module neummu\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the neummu repository (no go.mod declaring module neummu above the working directory)")
		}
		dir = parent
	}
}

// buildNeuserve builds cmd/neuserve from the module rooted at src. The
// build must not reach the network.
func buildNeuserve(src, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/neuserve")
	cmd.Dir = src
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=-buildvcs=false")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building neuserve in %s: %w\n%s", src, err, b)
	}
	return nil
}
