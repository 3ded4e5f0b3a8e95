package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"neummu/internal/stats"
)

// This file is the Prometheus text-exposition writer: a tiny, dependency-
// free encoder for the exposition format (version 0.0.4) that enforces
// the format's family discipline by construction — one HELP and one TYPE
// line per family, emitted once, immediately followed by all of the
// family's samples. The serving layers render their entire /metrics state
// through it for GET /metrics?format=prometheus; promlint.go is the
// matching strict parser CI scrapes are validated with.

// PromWriter streams one exposition. Families must not repeat (the format
// forbids it; Family panics on reuse — an exposition is assembled in one
// function, so a repeat is a programming error, not an input error).
type PromWriter struct {
	w      io.Writer
	seen   map[string]bool
	family string
	err    error
}

// NewPromWriter returns a writer targeting w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Err returns the first underlying write error.
func (p *PromWriter) Err() error { return p.err }

// Family opens a metric family: HELP and TYPE lines. typ is counter,
// gauge, or histogram.
func (p *PromWriter) Family(name, typ, help string) {
	if p.seen[name] {
		panic("trace: duplicate Prometheus family " + name)
	}
	p.seen[name] = true
	p.family = name
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample emits one sample of the open family. labels alternate key, value.
func (p *PromWriter) Sample(v float64, labels ...string) {
	p.sample(p.family, v, labels...)
}

// SampleBool emits a boolean gauge sample: 1 for true, 0 for false.
func (p *PromWriter) SampleBool(b bool, labels ...string) {
	v := 0.0
	if b {
		v = 1
	}
	p.Sample(v, labels...)
}

// Histogram emits one histogram's full sample set (_bucket lines with an
// le label, then _sum and _count) for the open family. cumulative has one
// extra final element for the +Inf bucket. Extra labels apply to every
// line.
func (p *PromWriter) Histogram(bounds []float64, cumulative []int64, sum float64, count int64, labels ...string) {
	for i, b := range bounds {
		p.sample(p.family+"_bucket", float64(cumulative[i]),
			append(append([]string{}, labels...), "le", formatFloat(b))...)
	}
	p.sample(p.family+"_bucket", float64(cumulative[len(bounds)]),
		append(append([]string{}, labels...), "le", "+Inf")...)
	p.sample(p.family+"_sum", sum, labels...)
	p.sample(p.family+"_count", float64(count), labels...)
}

// Summary emits one summary's full sample set for the open family: one
// sample per quantile (labeled quantile="q"), then _sum and _count. An
// empty window passes nil quantiles — absence, not a fake zero — and the
// _sum/_count pair still anchors the family.
func (p *PromWriter) Summary(quantiles, values []float64, sum float64, count int64, labels ...string) {
	for i, q := range quantiles {
		p.sample(p.family, values[i],
			append(append([]string{}, labels...), "quantile", formatFloat(q))...)
	}
	p.sample(p.family+"_sum", sum, labels...)
	p.sample(p.family+"_count", float64(count), labels...)
}

func (p *PromWriter) sample(name string, v float64, labels ...string) {
	if len(labels)%2 != 0 {
		panic("trace: odd label list")
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labels[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(labels[i+1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	p.printf("%s %s\n", sb.String(), formatFloat(v))
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// formatFloat renders a sample value or le bound the way Prometheus
// tooling expects: shortest round-trippable form, +Inf spelled literally.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// WriteStageHistograms emits the per-stage latency histograms as one
// histogram family with a stage label, shared by the server's and the
// coordinator's expositions so dashboards query one name for both tiers.
func WriteStageHistograms(p *PromWriter, family, help string, hists []StageHistogram) {
	p.Family(family, "histogram", help)
	// Stable label order: taxonomy order, which Snapshot already returns.
	for _, h := range hists {
		p.Histogram(h.Bounds, h.Cumulative, h.SumSeconds, h.Count, "stage", h.Stage)
	}
}

// WriteLatencySummary emits a summary family for a windowed latency
// recorder: p50/p95/p99 quantiles (omitted entirely when the window is
// empty — absence, not a fake zero, mirroring the JSON bodies), plus the
// exact _sum/_count pair. The recorder works in milliseconds; the wire
// is seconds per Prometheus convention.
func WriteLatencySummary(p *PromWriter, family, help string, s stats.LatencySummary) {
	p.Family(family, "summary", help)
	if !s.Valid() {
		p.Summary(nil, nil, 0, 0)
		return
	}
	p.Summary([]float64{0.5, 0.95, 0.99},
		[]float64{s.P50 / 1e3, s.P95 / 1e3, s.P99 / 1e3},
		s.Mean/1e3*float64(s.Count), s.Count)
}

// LabeledInt64 is one (labels, value) sample of a labeled family, used by
// the serving layers to emit the counter bundle and per-worker slices in
// a deterministic order.
type LabeledInt64 struct {
	Labels []string
	Value  int64
}

// WriteLabeledCounter emits one counter family with sorted-by-label
// samples (deterministic scrapes diff cleanly in CI).
func WriteLabeledCounter(p *PromWriter, family, help string, samples []LabeledInt64) {
	p.Family(family, "counter", help)
	sorted := make([]LabeledInt64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool {
		return strings.Join(sorted[i].Labels, "\x00") < strings.Join(sorted[j].Labels, "\x00")
	})
	for _, s := range sorted {
		p.Sample(float64(s.Value), s.Labels...)
	}
}
