package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"

	"neummu/internal/stats"
)

// This file is the Prometheus text-exposition writer: a tiny, dependency-
// free encoder for the exposition format (version 0.0.4) that enforces
// the format's family discipline by construction — one HELP and one TYPE
// line per family, emitted once, immediately followed by all of the
// family's samples. WriteMetrics renders a /metrics snapshot struct
// through it from the prom tags on its fields, so the JSON body and
// GET /metrics?format=prometheus come from one definition per metric;
// promlint.go is the matching strict parser the tests scrape with.

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

// LatencyJSON is the wire form of a stats.LatencySummary, shared by both
// roles' /metrics bodies so they report latency in one shape. The float
// fields are pointers so an empty window omits them entirely — the
// recorder reports NaN for "no samples" (which JSON cannot carry), and a
// dashboard must see absence, not a fake 0ms p99. WriteMetrics renders
// it as a summary in seconds.
type LatencyJSON struct {
	Count int64    `json:"count"`
	Mean  *float64 `json:"mean,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P95   *float64 `json:"p95,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

// ToLatencyJSON converts a summary to its wire form, dropping the NaN
// fields of an empty window.
func ToLatencyJSON(s stats.LatencySummary) LatencyJSON {
	out := LatencyJSON{Count: s.Count}
	if !s.Valid() {
		return out
	}
	mean, p50, p95, p99, max := s.Mean, s.P50, s.P95, s.P99, s.Max
	out.Mean, out.P50, out.P95, out.P99, out.Max = &mean, &p50, &p95, &p99, &max
	return out
}

// WriteMetrics writes snapshot m, a /metrics body struct, as Prometheus
// families named prefix plus the name in each field's prom tag. The
// struct is the one definition of every metric: the JSON body is the
// same value through encoding/json. Every exported field carries one of
// these prom tags:
//
//	"NAME TYPE"      a counter or gauge sample of the field (a bool is
//	                 0 or 1), or, with TYPE summary, a LatencyJSON in
//	                 seconds whose quantiles an empty window omits
//	"NAME TYPE KEY"  the same, labeled KEY=<the field's json key>; on a
//	                 struct, one such sample per field of it
//	"KEY=VALUE"      a struct walked with the constant label KEY=VALUE,
//	                 or a slice of structs walked element by element,
//	                 each labeled KEY=<its field named VALUE>
//	""               a struct walked with no label of its own
//	"label"          the string a slice's KEY=VALUE rule reads
//	"-"              a float64 derived from other fields (a ratio)
//
// The field that opens a family gives its HELP text in a help tag.
// Embedded structs are walked in place, as encoding/json flattens them.
// Several fields may feed one family (the cache families hold a sample
// per cache), so the families are gathered before anything is written:
// an untagged field, a malformed tag, or a family whose type or help
// disagrees is an error, and then nothing is written.
func WriteMetrics(p *PromWriter, prefix string, m any) error {
	c := metricSet{prefix: prefix, byName: map[string]*metricFamily{}}
	v := reflect.ValueOf(m)
	if v.Kind() != reflect.Struct {
		return fmt.Errorf("trace: metrics snapshot %T is not a struct", m)
	}
	if err := c.walk(v, nil); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, f := range c.families {
		p.Family(f.name, f.typ, f.help)
		for _, s := range f.samples {
			if f.typ != "summary" {
				p.Sample(s.v, s.labels...)
			} else if s.lat.Mean == nil {
				p.Summary(nil, nil, 0, s.lat.Count, s.labels...)
			} else {
				l := s.lat
				p.Summary([]float64{0.5, 0.95, 0.99}, []float64{*l.P50 / 1e3, *l.P95 / 1e3, *l.P99 / 1e3},
					*l.Mean/1e3*float64(l.Count), l.Count, s.labels...)
			}
		}
	}
	return nil
}

type metricSample struct {
	labels []string
	v      float64
	lat    LatencyJSON // summary families
}

type metricFamily struct {
	name, typ, help string
	samples         []metricSample
}

type metricSet struct {
	prefix   string
	families []*metricFamily
	byName   map[string]*metricFamily
}

func (c *metricSet) walk(v reflect.Value, labels []string) error {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("prom")
		var err error
		switch {
		case !ok && f.Anonymous && f.Type.Kind() == reflect.Struct:
			err = c.walk(v.Field(i), labels)
		case !f.IsExported():
			continue
		case !ok:
			err = errors.New("no prom tag")
		default:
			err = c.field(f, v.Field(i), tag, labels)
		}
		if err != nil {
			return fmt.Errorf("%s.%s: %w", t, f.Name, err)
		}
	}
	return nil
}

// field gathers one tagged field's samples (see WriteMetrics).
func (c *metricSet) field(f reflect.StructField, v reflect.Value, tag string, labels []string) error {
	words := strings.Fields(tag)
	kind := v.Kind()
	switch {
	case tag == "-" && kind == reflect.Float64, tag == "label" && kind == reflect.String:
		return nil
	case tag == "" && kind == reflect.Struct:
		return c.walk(v, labels)
	case len(words) == 1 && strings.Contains(tag, "="):
		key, val, _ := strings.Cut(tag, "=")
		if kind == reflect.Struct {
			return c.walk(v, with(labels, key, val))
		}
		if kind != reflect.Slice || v.Type().Elem().Kind() != reflect.Struct {
			break
		}
		for j := 0; j < v.Len(); j++ {
			lv := v.Index(j).FieldByName(val)
			if lv.Kind() != reflect.String {
				return fmt.Errorf("no string field %s to label %s by", val, key)
			}
			if err := c.walk(v.Index(j), with(labels, key, lv.String())); err != nil {
				return err
			}
		}
		return nil
	case len(words) == 2 || len(words) == 3:
		fam, err := c.family(words[0], words[1], f.Tag.Get("help"))
		if err != nil {
			return err
		}
		switch {
		case fam.typ == "summary":
			lat, ok := v.Interface().(LatencyJSON)
			if !ok || len(words) == 3 {
				return errors.New("a summary is one unlabeled LatencyJSON")
			}
			fam.samples = append(fam.samples, metricSample{labels: labels, lat: lat})
			return nil
		case len(words) == 2:
			return fam.add(v, labels)
		case kind != reflect.Struct:
			return fam.add(v, with(labels, words[2], jsonKey(f)))
		}
		for j := 0; j < v.NumField(); j++ {
			if err := fam.add(v.Field(j), with(labels, words[2], jsonKey(v.Type().Field(j)))); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("prom tag %q does not fit a %s", tag, v.Type())
}

// family returns the named family, opening it on first use.
func (c *metricSet) family(name, typ, help string) (*metricFamily, error) {
	if typ != "counter" && typ != "gauge" && typ != "summary" {
		return nil, fmt.Errorf("unknown metric type %q", typ)
	}
	name = c.prefix + name
	f := c.byName[name]
	switch {
	case f == nil && help == "":
		return nil, fmt.Errorf("family %s opens without a help tag", name)
	case f == nil:
		f = &metricFamily{name: name, typ: typ, help: help}
		c.byName[name] = f
		c.families = append(c.families, f)
	case f.typ != typ || help != "" && help != f.help:
		return nil, fmt.Errorf("family %s redefined as %s %q", name, typ, help)
	}
	return f, nil
}

// add appends one numeric sample.
func (f *metricFamily) add(v reflect.Value, labels []string) error {
	var x float64
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			x = 1
		}
	case reflect.Int, reflect.Int64:
		x = float64(v.Int())
	case reflect.Float64:
		x = v.Float()
	default:
		return fmt.Errorf("a %s is not a sample value", v.Type())
	}
	f.samples = append(f.samples, metricSample{labels: labels, v: x})
	return nil
}

// jsonKey is the field's JSON object key.
func jsonKey(f reflect.StructField) string {
	if k, _, _ := strings.Cut(f.Tag.Get("json"), ","); k != "" {
		return k
	}
	return f.Name
}

// with returns a copy of labels with one more key/value pair.
func with(labels []string, key, val string) []string {
	return append(append([]string(nil), labels...), key, val)
}
