package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// buildExposition renders a representative exposition through the writer:
// plain counters, a gauge, a labeled counter family (through
// WriteMetrics), and the stage histograms — the same shapes the serving
// layers emit.
func buildExposition(t *testing.T, cells float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("neuserve_requests_total", "counter", "HTTP requests accepted")
	p.Sample(cells + 3)
	p.Family("neuserve_queue_depth", "gauge", "queued jobs")
	p.Sample(2)
	var m struct {
		Counters struct {
			TLBHits     int64 `json:"tlb_hits"`
			WalksIssued int64 `json:"walks_issued"`
		} `json:"sim_counters" prom:"sim_counters_total counter counter" help:"audited counter bundle"`
	}
	m.Counters.TLBHits, m.Counters.WalksIssued = int64(cells*10), int64(cells)
	if err := WriteMetrics(p, "neuserve_", m); err != nil {
		t.Fatal(err)
	}
	h := NewStageHistograms()
	var st Stages
	st[StageCompute] = int64(5 * time.Millisecond)
	st[StageQueue] = int64(100 * time.Microsecond)
	for i := 0; i < int(cells); i++ {
		h.Record(st)
	}
	WriteStageHistograms(p, "neuserve_stage_duration_seconds",
		"per-stage request latency", h.Snapshot())
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	return buf.Bytes()
}

func TestWriterOutputPassesStrictParse(t *testing.T) {
	data := buildExposition(t, 4)
	e, err := ParseProm(data)
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, data)
	}
	if len(e.Families) != 4 {
		t.Fatalf("families = %d", len(e.Families))
	}
	f, ok := e.Family("neuserve_sim_counters_total")
	if !ok || len(f.Samples) != 2 {
		t.Fatalf("labeled counter family = %+v", f)
	}
	// Labeled samples come out in field order.
	if f.Samples[0].Labels["counter"] != "tlb_hits" {
		t.Fatalf("sample order: %+v", f.Samples)
	}
	hist, ok := e.Family("neuserve_stage_duration_seconds")
	if !ok || hist.Type != "histogram" {
		t.Fatal("histogram family missing")
	}
}

func TestParseRejectsDuplicateFamily(t *testing.T) {
	bad := `# HELP a one
# TYPE a counter
a 1
# HELP a again
# TYPE a counter
a 2
`
	if _, err := ParseProm([]byte(bad)); err == nil || !strings.Contains(err.Error(), "duplicate family") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRejectsMissingHelpOrType(t *testing.T) {
	cases := map[string]string{
		"sample before family": "a 1\n",
		"TYPE without HELP":    "# TYPE a counter\na 1\n",
		"HELP without TYPE":    "# HELP a text\na 1\n",
	}
	for name, body := range cases {
		if _, err := ParseProm([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseRejectsDuplicateSample(t *testing.T) {
	bad := "# HELP a one\n# TYPE a counter\na{k=\"x\"} 1\na{k=\"x\"} 2\n"
	if _, err := ParseProm([]byte(bad)); err == nil || !strings.Contains(err.Error(), "duplicate sample") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRejectsInterleavedFamilies(t *testing.T) {
	bad := `# HELP a one
# TYPE a counter
a 1
# HELP b two
# TYPE b counter
a 2
`
	if _, err := ParseProm([]byte(bad)); err == nil || !strings.Contains(err.Error(), "outside its family") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRejectsNegativeCounter(t *testing.T) {
	bad := "# HELP a one\n# TYPE a counter\na -1\n"
	if _, err := ParseProm([]byte(bad)); err == nil || !strings.Contains(err.Error(), "invalid value") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRejectsBrokenHistogram(t *testing.T) {
	noInf := `# HELP h hist
# TYPE h histogram
h_bucket{le="1"} 2
h_sum 1.5
h_count 2
`
	if _, err := ParseProm([]byte(noInf)); err == nil || !strings.Contains(err.Error(), "+Inf") {
		t.Fatalf("missing +Inf: err = %v", err)
	}
	notCumulative := `# HELP h hist
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1.5
h_count 5
`
	if _, err := ParseProm([]byte(notCumulative)); err == nil || !strings.Contains(err.Error(), "cumulative") {
		t.Fatalf("non-cumulative: err = %v", err)
	}
	infNeCount := `# HELP h hist
# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 5
h_sum 1.5
h_count 4
`
	if _, err := ParseProm([]byte(infNeCount)); err == nil || !strings.Contains(err.Error(), "_count") {
		t.Fatalf("inf != count: err = %v", err)
	}
}

func TestCheckMonotonic(t *testing.T) {
	prev, err := ParseProm(buildExposition(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ParseProm(buildExposition(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMonotonic(prev, cur); err != nil {
		t.Fatalf("forward scrape flagged: %v", err)
	}
	if err := CheckMonotonic(cur, prev); err == nil {
		t.Fatal("backwards counters not flagged")
	}
}

func TestLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("a", "gauge", `help with \ and
newline`)
	p.Sample(1, "worker", `http://x:1/"q"`)
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	e, err := ParseProm(buf.Bytes())
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	f, _ := e.Family("a")
	if f.Samples[0].Labels["worker"] != `http://x:1/"q"` {
		t.Fatalf("label round trip: %q", f.Samples[0].Labels["worker"])
	}
}

func TestDuplicateFamilyPanicsInWriter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate family")
		}
	}()
	p := NewPromWriter(&bytes.Buffer{})
	p.Family("x", "counter", "a")
	p.Family("x", "counter", "b")
}
