package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the strict Prometheus text-format parser and linter the
// /metrics tests validate live scrapes and the writer's output with.
// "Strict" means stricter than a tolerant scraper: every sample's family
// must carry HELP and TYPE, a family block may not repeat or interleave,
// a sample may not repeat, histogram buckets must be cumulative and
// carry an +Inf bucket, and counters must be finite and non-negative.
// CheckMonotonic compares two scrapes of the same target and fails if
// any counter went backwards.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string // full sample name (family, or family_bucket/_sum/_count)
	Labels map[string]string
	Value  float64
}

// key is the sample identity: name plus sorted labels.
func (s PromSample) key() string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(s.Name)
	for _, k := range keys {
		sb.WriteByte('{')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(s.Labels[k])
		sb.WriteByte('}')
	}
	return sb.String()
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name    string
	Type    string // counter, gauge, histogram
	Help    string
	Samples []PromSample
}

// Exposition is one parsed scrape.
type Exposition struct {
	Families []*PromFamily
	byName   map[string]*PromFamily
}

// Family returns a parsed family by name.
func (e *Exposition) Family(name string) (*PromFamily, bool) {
	f, ok := e.byName[name]
	return f, ok
}

// ParseProm parses and lints one exposition. Any format or discipline
// violation is an error; a valid scrape round-trips the PromWriter's
// output exactly.
func ParseProm(data []byte) (*Exposition, error) {
	e := &Exposition{byName: make(map[string]*PromFamily)}
	var cur *PromFamily
	pendingHelp := map[string]string{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name, text, ok := cutFirst(line[len("# HELP "):])
			if !ok {
				return nil, fmt.Errorf("line %d: malformed HELP", lineNo)
			}
			if _, dup := e.byName[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate family %s", lineNo, name)
			}
			if _, dup := pendingHelp[name]; dup {
				return nil, fmt.Errorf("line %d: repeated HELP for %s", lineNo, name)
			}
			pendingHelp[name] = text
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			name, typ, ok := cutFirst(line[len("# TYPE "):])
			if !ok {
				return nil, fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q for %s", lineNo, typ, name)
			}
			if _, dup := e.byName[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate family %s", lineNo, name)
			}
			help, ok := pendingHelp[name]
			if !ok {
				return nil, fmt.Errorf("line %d: TYPE %s without preceding HELP", lineNo, name)
			}
			delete(pendingHelp, name)
			cur = &PromFamily{Name: name, Type: typ, Help: help}
			e.Families = append(e.Families, cur)
			e.byName[name] = cur
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: sample %s before any family", lineNo, s.Name)
		}
		if base := familyOf(s.Name, cur); base != cur.Name {
			return nil, fmt.Errorf("line %d: sample %s outside its family block (open family %s)",
				lineNo, s.Name, cur.Name)
		}
		if seen[s.key()] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, s.key())
		}
		seen[s.key()] = true
		cur.Samples = append(cur.Samples, s)
	}
	if len(pendingHelp) > 0 {
		for name := range pendingHelp {
			return nil, fmt.Errorf("HELP %s without TYPE", name)
		}
	}
	return e, e.lint()
}

// cutFirst splits "name rest" on the first space.
func cutFirst(s string) (string, string, bool) {
	i := strings.IndexByte(s, ' ')
	if i <= 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// familyOf maps a sample name to its family name given the open family
// (histogram samples carry _bucket/_sum/_count suffixes).
func familyOf(sample string, open *PromFamily) string {
	if open.Type == "histogram" || open.Type == "summary" {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if sample == open.Name+suf {
				return open.Name
			}
		}
	}
	return sample
}

func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		if rest[i] == '{' {
			end := strings.LastIndexByte(rest, '}')
			if end < i {
				return s, fmt.Errorf("unterminated label set in %q", line)
			}
			if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
				return s, err
			}
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			rest = strings.TrimSpace(rest[i+1:])
		}
	}
	// A timestamp after the value is legal in the format; the writers here
	// never emit one, and the linter rejects it to keep scrapes diffable.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(s string, out map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return fmt.Errorf("malformed label in %q", s)
		}
		name := s[:eq]
		rest := s[eq+2:]
		var sb strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					sb.WriteByte('\n')
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				default:
					return fmt.Errorf("bad escape in label %s", name)
				}
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
		}
		if i == len(rest) {
			return fmt.Errorf("unterminated label value for %s", name)
		}
		if _, dup := out[name]; dup {
			return fmt.Errorf("duplicate label %s", name)
		}
		out[name] = sb.String()
		s = rest[i+1:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if len(s) > 0 {
			return fmt.Errorf("malformed label separator in %q", s)
		}
	}
	return nil
}

// lint applies the value-level checks: counters finite and non-negative,
// histogram bucket sets cumulative with an +Inf bucket matching _count.
func (e *Exposition) lint() error {
	for _, f := range e.Families {
		switch f.Type {
		case "counter":
			for _, s := range f.Samples {
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value < 0 {
					return fmt.Errorf("counter %s has invalid value %v", s.key(), s.Value)
				}
			}
		case "histogram":
			if err := lintHistogram(f); err != nil {
				return err
			}
		}
	}
	return nil
}

func lintHistogram(f *PromFamily) error {
	// Group bucket samples by their non-le labels.
	type series struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	groups := map[string]*series{}
	groupKey := func(s PromSample) string {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k + "=" + s.Labels[k] + ";")
		}
		return sb.String()
	}
	get := func(s PromSample) *series {
		k := groupKey(s)
		g, ok := groups[k]
		if !ok {
			g = &series{}
			groups[k] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s bucket without le label", f.Name)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("histogram %s: bad le %q", f.Name, leStr)
				}
				le = v
			}
			g := get(s)
			g.les = append(g.les, le)
			g.counts = append(g.counts, s.Value)
		case f.Name + "_count":
			g := get(s)
			g.count = s.Value
			g.hasCnt = true
		}
	}
	for k, g := range groups {
		if len(g.les) == 0 {
			return fmt.Errorf("histogram %s{%s} has no buckets", f.Name, k)
		}
		if !math.IsInf(g.les[len(g.les)-1], 1) {
			return fmt.Errorf("histogram %s{%s} missing +Inf bucket", f.Name, k)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("histogram %s{%s} le bounds not ascending", f.Name, k)
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("histogram %s{%s} buckets not cumulative", f.Name, k)
			}
		}
		if !g.hasCnt {
			return fmt.Errorf("histogram %s{%s} missing _count", f.Name, k)
		}
		if g.counts[len(g.counts)-1] != g.count {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %v != _count %v",
				f.Name, k, g.counts[len(g.counts)-1], g.count)
		}
	}
	return nil
}

// CheckMonotonic verifies that between two scrapes of the same target no
// counter (including histogram buckets, sums, and counts) went backwards.
// Samples present only in one scrape are ignored — new workers and newly
// observed label values appear legitimately.
func CheckMonotonic(prev, cur *Exposition) error {
	for _, pf := range prev.Families {
		if pf.Type != "counter" && pf.Type != "histogram" {
			continue
		}
		cf, ok := cur.Family(pf.Name)
		if !ok {
			return fmt.Errorf("family %s disappeared between scrapes", pf.Name)
		}
		if cf.Type != pf.Type {
			return fmt.Errorf("family %s changed type %s -> %s", pf.Name, pf.Type, cf.Type)
		}
		curVals := make(map[string]float64, len(cf.Samples))
		for _, s := range cf.Samples {
			curVals[s.key()] = s.Value
		}
		for _, s := range pf.Samples {
			if v, ok := curVals[s.key()]; ok && v < s.Value {
				return fmt.Errorf("counter %s went backwards: %v -> %v", s.key(), s.Value, v)
			}
		}
	}
	return nil
}
