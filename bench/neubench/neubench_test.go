package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json, the contract this program answers to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) (string, benchmarkSpec) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestSpecMatchesProgram pins BENCHMARK.json to the workloads and layer
// metrics the program defines, so neither can drift from the other.
func TestSpecMatchesProgram(t *testing.T) {
	_, spec := readSpec(t)
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, allWorkloads[i].name, allWorkloads[i].why)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
	}
}

// runCaptured runs the benchmark's command line and returns what it
// printed on standard output.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := runBench(args)
	os.Stdout = stdout
	w.Close()
	out := string(<-done)
	if runErr != nil {
		t.Fatalf("neubench %s: %v\n%s", strings.Join(args, " "), runErr, out)
	}
	return out
}

type summaryLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func lastJSON(t *testing.T, out string) summaryLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, out)
	}
	return s
}

// TestSmoke runs every workload at smoke size against a freshly built
// neuserve, end to end and traced, and checks the output contract.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots neuserve")
	}
	root, spec := readSpec(t)
	work := t.TempDir()
	bin := filepath.Join(work, "neuserve")
	if err := buildNeuserve(root, bin); err != nil {
		t.Fatal(err)
	}
	results := filepath.Join(work, "results.json")
	out := runCaptured(t, "-size", "smoke", "-seed", "1", "-neuserve", bin, "-work", work, "-json", results)
	sum := lastJSON(t, out)
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Errorf("correct=%t failed=%d attempted=%d, want a clean run", sum.Correct, sum.Failed, sum.Attempted)
	}
	if want := len(allWorkloads) * len(spec.EndToEnd); len(sum.Metrics) != want {
		t.Errorf("summary carries %d metrics, want the %d declared ones", len(sum.Metrics), want)
	}
	for _, w := range allWorkloads {
		for _, m := range spec.EndToEnd {
			got, ok := sum.Metrics[w.name+"."+m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("%s: %s printed as %+v, want a value in %s", w.name, m.Name, got, m.Unit)
			}
		}
		if !strings.Contains(out, w.name+" seed=1 size=smoke") || !strings.Contains(out, "failed_frac=0 ") {
			t.Errorf("%s: no clean header line in\n%s", w.name, out)
		}
	}

	b, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Results []*result `json:"results"`
	}
	if err := json.Unmarshal(b, &full); err != nil {
		t.Fatal(err)
	}
	for _, r := range full.Results {
		if r.Rounds != smokeRounds || len(r.Digests) != r.Rounds {
			t.Errorf("%s: %d rounds, %d digests, want %d of each", r.Workload, r.Rounds, len(r.Digests), smokeRounds)
		}
		for i, d := range r.Digests {
			if d != r.Digests[0] {
				t.Errorf("%s: round %d digest %s differs from round 0's %s", r.Workload, i, d, r.Digests[0])
			}
		}
		if r.Golden != "" && r.Digests[0] != r.Golden {
			t.Errorf("%s: digest %s, golden %s", r.Workload, r.Digests[0], r.Golden)
		}
	}

	traced := lastJSON(t, runCaptured(t, "-size", "smoke", "-trace", "1", "-neuserve", bin, "-work", work))
	if !traced.Correct || traced.Failed != 0 {
		t.Errorf("traced: correct=%t failed=%d", traced.Correct, traced.Failed)
	}
	if want := len(allWorkloads) * len(spec.PerLayer); len(traced.Metrics) != want {
		t.Errorf("traced summary carries %d metrics, want the %d declared ones", len(traced.Metrics), want)
	}
	for _, w := range allWorkloads {
		for _, m := range spec.PerLayer {
			got, ok := traced.Metrics[w.name+"."+m.Name]
			if !ok || got.Value == nil || math.IsNaN(*got.Value) || got.Unit != m.Unit {
				t.Errorf("traced %s: %s printed as %+v, want a value in %s", w.name, m.Name, got, m.Unit)
			}
		}
	}
}

// TestRunsFailOutsideTheRepository: with only the benchmark's own files
// present there is no neuserve to build, so the run must fail without a
// summary line.
func TestRunsFailOutsideTheRepository(t *testing.T) {
	t.Chdir(t.TempDir())
	var buf bytes.Buffer
	stdout := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	err := runBench([]string{"-size", "smoke", "-workload", "warm-hits"})
	os.Stdout = stdout
	w.Close()
	io.Copy(&buf, r)
	if err == nil || buf.Len() != 0 {
		t.Fatalf("err=%v, stdout=%q; want an error and no output", err, buf.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
	// statistics.quantiles([2, 1], n=4) == [0.75, 1.5, 2.25]
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3}, 1, 3, 4},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {200000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", tc.n, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // median 100, IQR 2
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"every pair faster, clear of the base IQR", base, shift(base, -5), true, 0.1, improved},
		{"higher-is-better mirror", base, shift(base, 5), false, 0.1, improved},
		{"9 of 10 wins suffice", base, append(shift(base[:9], -5), base[9]+1), true, 0.1, improved},
		{"8 of 10 wins do not", base, append(shift(base[:8], -5), base[8]+1, base[9]+1), true, 0.1, unchanged},
		{"ties count for neither side", base, append(shift(base[:8], -5), base[8], base[9]), true, 0.1, unchanged},
		{"9 wins and a tie suffice", base, append(shift(base[:9], -5), base[9]), true, 0.1, improved},
		{"medians within the base IQR", base, shift(base, -1), true, 0.1, unchanged},
		{"every pair slower, clear of the IQR", base, shift(base, 5), true, 0.1, regressed},
		{"median worse by more than the bound", base, []float64{120, 121, 119, 120, 122, 118, 120, 121, 90, 95}, true, 0.1, regressed},
		{"noisy, but the median is worse by more than the bound", []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100},
			[]float64{60, 180, 72, 168, 120, 84, 156, 108, 132, 120}, true, 0.1, regressed},
		{"spread wider than the bound", []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100},
			[]float64{55, 145, 65, 135, 105, 75, 125, 95, 115, 100}, true, 0.1, unresolved},
		{"wide spread but every head run better", []float64{100, 100, 100, 100, 100, 1000, 1000, 1000, 1000, 1000},
			[]float64{99, 99, 99, 99, 99, 99, 99, 99, 99, 99}, true, 0.1, unchanged},
	} {
		got, _, err := judge(tc.base, tc.head, tc.lowerBetter, tc.bound)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, _, err := judge(base, base[:3], true, 0.1); err == nil {
		t.Error("unequal pair lists accepted")
	}
}
