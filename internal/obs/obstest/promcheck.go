// Package obstest is test support for internal/obs: a strict validator
// for the Prometheus text exposition format (version 0.0.4), which the obs
// and concurrent-scrape tests use to prove that /metrics output — including
// adversarial label values routed through the exposition's label escaping —
// is parseable by a real scraper. Only tests import it. It checks:
//
//   - metric and label name character sets;
//   - label value escaping (only \\, \", \n are legal escapes; no raw
//     newline or unescaped quote inside a value);
//   - comment lines: HELP/TYPE shape, known TYPE values, at most one
//     HELP and one TYPE per family, TYPE before the family's samples;
//   - sample values (Go float syntax plus +Inf/-Inf/NaN) and optional
//     integer timestamps;
//   - duplicate series (same name + same canonical label set);
//   - histogram families: _bucket samples need an le label, cumulative
//     bucket counts must be non-decreasing, and a +Inf bucket must close
//     every histogram that emitted buckets.
//
// It is deliberately stricter than most real parsers: the point is to
// catch malformed output at test time, not to maximally accept input.
package obstest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// histState accumulates per-family histogram checks.
type histState struct {
	lastCum   float64 // last cumulative bucket count seen per label-set
	lastKey   string  // label-set key of lastCum
	sawBucket bool
	sawInf    map[string]bool // label-set key (minus le) → +Inf bucket seen
}

// ValidatePrometheusText reads an exposition and returns the first
// format violation found, or nil when the input is well-formed.
func ValidatePrometheusText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	seen := make(map[string]bool)    // full series key → dup detection
	typed := make(map[string]string) // family → declared TYPE
	helped := make(map[string]bool)  // family → HELP seen
	sampled := make(map[string]bool) // family → samples seen
	hists := make(map[string]*histState)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, typed, helped, sampled); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := validateSample(line, seen, typed, sampled, hists); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("promcheck: read: %w", err)
	}
	for fam, hs := range hists {
		if !hs.sawBucket {
			continue
		}
		for key, sawInf := range hs.sawInf {
			if !sawInf {
				return fmt.Errorf("promcheck: histogram %s%s has buckets but no le=\"+Inf\" bucket", fam, key)
			}
		}
	}
	return nil
}

// validateComment checks a "# HELP ..." / "# TYPE ..." line. Other
// comments are legal and ignored.
func validateComment(line string, typed map[string]string, helped, sampled map[string]bool) error {
	rest := strings.TrimPrefix(line, "#")
	if !strings.HasPrefix(rest, " ") {
		return fmt.Errorf("promcheck: comment missing space after #: %q", line)
	}
	fields := strings.SplitN(rest[1:], " ", 3)
	switch fields[0] {
	case "HELP":
		if len(fields) < 2 {
			return fmt.Errorf("promcheck: HELP without metric name: %q", line)
		}
		name := fields[1]
		if !validMetricName(name) {
			return fmt.Errorf("promcheck: HELP for invalid metric name %q", name)
		}
		if helped[name] {
			return fmt.Errorf("promcheck: duplicate HELP for %q", name)
		}
		helped[name] = true
	case "TYPE":
		if len(fields) != 3 {
			return fmt.Errorf("promcheck: TYPE needs name and type: %q", line)
		}
		name, typ := fields[1], fields[2]
		if !validMetricName(name) {
			return fmt.Errorf("promcheck: TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("promcheck: unknown TYPE %q for %q", typ, name)
		}
		if _, dup := typed[name]; dup {
			return fmt.Errorf("promcheck: duplicate TYPE for %q", name)
		}
		if sampled[name] {
			return fmt.Errorf("promcheck: TYPE for %q after its samples", name)
		}
		typed[name] = typ
	}
	return nil
}

// validateSample checks one sample line: name, label block, value,
// optional timestamp.
func validateSample(line string, seen map[string]bool, typed map[string]string, sampled map[string]bool, hists map[string]*histState) error {
	name, rest, err := splitName(line)
	if err != nil {
		return err
	}
	labels, rest, err := parseLabels(rest)
	if err != nil {
		return fmt.Errorf("promcheck: %s: %w", name, err)
	}
	rest = strings.TrimLeft(rest, " ")
	if rest == "" {
		return fmt.Errorf("promcheck: %s: missing value", name)
	}
	parts := strings.Fields(rest)
	if len(parts) > 2 {
		return fmt.Errorf("promcheck: %s: trailing garbage after value: %q", name, rest)
	}
	val, err := parseValue(parts[0])
	if err != nil {
		return fmt.Errorf("promcheck: %s: %w", name, err)
	}
	if len(parts) == 2 {
		if _, err := strconv.ParseInt(parts[1], 10, 64); err != nil {
			return fmt.Errorf("promcheck: %s: bad timestamp %q", name, parts[1])
		}
	}
	key := name + canonicalLabelKey(labels, "")
	if seen[key] {
		return fmt.Errorf("promcheck: duplicate series %s", key)
	}
	seen[key] = true

	// Family bookkeeping: a _bucket/_sum/_count sample belongs to its
	// histogram family when one is declared.
	fam := name
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && typed[base] == "histogram" {
			fam = base
			break
		}
	}
	sampled[fam] = true
	if typed[fam] == "histogram" && strings.HasSuffix(name, "_bucket") {
		le, ok := labels["le"]
		if !ok {
			return fmt.Errorf("promcheck: histogram bucket %s missing le label", name)
		}
		if _, err := parseValue(le); err != nil {
			return fmt.Errorf("promcheck: histogram %s: bad le %q", fam, le)
		}
		hs := hists[fam]
		if hs == nil {
			hs = &histState{sawInf: make(map[string]bool)}
			hists[fam] = hs
		}
		hs.sawBucket = true
		lkey := canonicalLabelKey(labels, "le")
		if hs.lastKey == lkey && val < hs.lastCum {
			return fmt.Errorf("promcheck: histogram %s%s: bucket counts not cumulative (%g after %g)", fam, lkey, val, hs.lastCum)
		}
		hs.lastKey, hs.lastCum = lkey, val
		if le == "+Inf" {
			hs.sawInf[lkey] = true
		} else if !hs.sawInf[lkey] {
			hs.sawInf[lkey] = false
		}
	}
	return nil
}

// splitName splits "name{...} value" / "name value" at the name boundary.
func splitName(line string) (name, rest string, err error) {
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return "", "", fmt.Errorf("promcheck: sample without value: %q", line)
	}
	name = line[:end]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("promcheck: invalid metric name %q", name)
	}
	return name, line[end:], nil
}

// parseLabels consumes an optional {k="v",...} block, validating names
// and escape sequences, and returns the labels plus the remaining text.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := make(map[string]string)
	if !strings.HasPrefix(rest, "{") {
		return labels, rest, nil
	}
	i := 1
	for {
		if i >= len(rest) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if rest[i] == '}' {
			return labels, rest[i+1:], nil
		}
		if rest[i] == ',' {
			i++
			continue
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' near %q", rest[i:])
		}
		lname := rest[i : i+eq]
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return nil, "", fmt.Errorf("label %s: value not quoted", lname)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(rest) {
				return nil, "", fmt.Errorf("label %s: unterminated value", lname)
			}
			c := rest[i]
			if c == '"' {
				i++
				break
			}
			if c == '\n' {
				return nil, "", fmt.Errorf("label %s: raw newline in value", lname)
			}
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, "", fmt.Errorf("label %s: dangling backslash", lname)
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: illegal escape \\%c", lname, rest[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[lname]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", lname)
		}
		labels[lname] = val.String()
	}
}

// parseValue accepts Go float syntax plus the Prometheus specials.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// canonicalLabelKey renders labels sorted by name, excluding one name
// (used to group histogram buckets across le).
func canonicalLabelKey(labels map[string]string, exclude string) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		if k != exclude {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
