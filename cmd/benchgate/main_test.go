package main

import (
	"fmt"
	"strings"
	"testing"
)

// benchOutput renders synthetic `go test -bench` output: one result line
// per ns/op value of each named benchmark, amid the header and footer
// lines a real run prints.
func benchOutput(runs map[string][]float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: neummu/internal/exp\ncpu: test\n")
	for name, ns := range runs {
		for _, x := range ns {
			fmt.Fprintf(&b, "%s  \t       3\t%12.0f ns/op\t        24.37 cells/sec\n", name, x)
		}
	}
	b.WriteString("PASS\nok  \tneummu/internal/exp\t35.203s\n")
	return b.String()
}

// gateOn parses base and head output and compares them at +15%.
func gateOn(t *testing.T, base, head string) (map[string]row, bool) {
	t.Helper()
	bs, hs := map[string][]float64{}, map[string][]float64{}
	if err := parse(strings.NewReader(base), bs); err != nil {
		t.Fatal(err)
	}
	if err := parse(strings.NewReader(head), hs); err != nil {
		t.Fatal(err)
	}
	rows, failed := compare(bs, hs, 15)
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.name] = r
	}
	return byName, failed
}

func TestGateThreshold(t *testing.T) {
	base := benchOutput(map[string][]float64{"BenchmarkDenseSuiteSerial": {1030, 1000, 1010}})
	for _, c := range []struct {
		head    []float64
		verdict string
		failed  bool
	}{
		{[]float64{1160, 1200, 1190}, "FAIL", true}, // min +16%
		{[]float64{1140, 1200, 1190}, "ok", false},  // min +14%
		{[]float64{900, 950, 990}, "ok", false},     // faster
	} {
		rows, failed := gateOn(t, base, benchOutput(map[string][]float64{"BenchmarkDenseSuiteSerial": c.head}))
		r := rows["BenchmarkDenseSuiteSerial"]
		if r.verdict != c.verdict || failed != c.failed {
			t.Errorf("head %v: verdict %q failed %v (delta %+.1f%%), want %q %v",
				c.head, r.verdict, failed, r.delta, c.verdict, c.failed)
		}
	}
}

func TestGateMinAgainstMinAndPairsWon(t *testing.T) {
	rows, failed := gateOn(t,
		benchOutput(map[string][]float64{"BenchmarkX": {100, 300, 110}}),
		benchOutput(map[string][]float64{"BenchmarkX": {105, 200, 200}}))
	r := rows["BenchmarkX"]
	if failed || r.delta != 5 || r.won != 1 {
		t.Errorf("delta %+.1f%% won %d failed %v, want +5%% (min 105 vs 100), 1 round won, pass",
			r.delta, r.won, failed)
	}
}

func TestGateMissingAtHeadFails(t *testing.T) {
	rows, failed := gateOn(t,
		benchOutput(map[string][]float64{"BenchmarkA": {100}, "BenchmarkB": {100}}),
		benchOutput(map[string][]float64{"BenchmarkA": {100}}))
	if !failed || rows["BenchmarkB"].verdict != "missing" {
		t.Errorf("benchmark gone at HEAD: verdict %q failed %v, want missing and a failed gate",
			rows["BenchmarkB"].verdict, failed)
	}
}

func TestGateNewAtHeadNotGated(t *testing.T) {
	rows, failed := gateOn(t,
		benchOutput(map[string][]float64{"BenchmarkA": {100}}),
		benchOutput(map[string][]float64{"BenchmarkA": {100}, "BenchmarkNew": {1e12}}))
	r, ok := rows["BenchmarkNew"]
	if !ok || r.verdict != "new" || failed {
		t.Errorf("benchmark new at HEAD: reported %v verdict %q failed %v, want reported as new and a passing gate",
			ok, r.verdict, failed)
	}
}

func TestGateProcsSuffixesMatch(t *testing.T) {
	rows, failed := gateOn(t,
		benchOutput(map[string][]float64{"BenchmarkServeSweepThroughput/cold": {100}}),
		benchOutput(map[string][]float64{"BenchmarkServeSweepThroughput/cold-4": {100}}))
	if len(rows) != 1 || failed || rows["BenchmarkServeSweepThroughput/cold"].verdict != "ok" {
		t.Errorf("-4 suffix did not match its unsuffixed name: rows %v failed %v", rows, failed)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	got := map[string][]float64{}
	out := "BenchmarkA\n--- FAIL: BenchmarkB\nBenchmarkC-2 \t 3\t 12.5 ns/op\n"
	if err := parse(strings.NewReader(out), got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got["BenchmarkC"]) != 1 || got["BenchmarkC"][0] != 12.5 {
		t.Errorf("parsed %v, want only BenchmarkC = [12.5]", got)
	}
}
