package metrics

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text exposition format
// (version 0.0.4): per family a `# HELP` line, a `# TYPE` line, then one
// sample line per series, families sorted by name and series by label
// values, so two scrapes of an unchanged registry are byte-equal
// (TestExpositionFormatStrict compares them).
// Histograms render cumulative `_bucket` samples (the `le` label, ending in
// `le="+Inf"` whose value equals `_count`), then `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()

	for _, f := range fams {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(string(f.kind))
		bw.WriteByte('\n')
		f.writeSeries(bw)
	}
	return bw.Flush()
}

// writeSeries renders every series of one family, sorted by label values.
func (f *family) writeSeries(bw *bufio.Writer) {
	f.mu.RLock()
	keys := make([]labelKey, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	children := make([]any, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		for l := 0; l < len(f.labels); l++ {
			if keys[i][l] != keys[j][l] {
				return keys[i][l] < keys[j][l]
			}
		}
		return false
	})
	for i, k := range keys {
		children[i] = f.series[k]
	}
	f.mu.RUnlock()

	for i, k := range keys {
		labels := f.renderLabels(k, "", "")
		switch c := children[i].(type) {
		case *Counter:
			writeSample(bw, f.name, labels, formatInt(c.Load()))
		case *Gauge:
			writeSample(bw, f.name, labels, formatInt(c.Load()))
		case *Histogram:
			// Cumulative buckets: each le value includes all smaller ones.
			cum := int64(0)
			for bi, ub := range c.upper {
				cum += c.counts[bi].Load()
				writeSample(bw, f.name+"_bucket",
					f.renderLabels(k, "le", formatFloat(ub)), formatInt(cum))
			}
			// The +Inf bucket is by definition the total count.  Load the
			// overflow bucket first so a concurrent Observe can make the
			// rendered +Inf only >= the buckets below it, never smaller.
			cum += c.counts[len(c.upper)].Load()
			writeSample(bw, f.name+"_bucket", f.renderLabels(k, "le", "+Inf"), formatInt(cum))
			writeSample(bw, f.name+"_sum", labels, formatFloat(c.Sum()))
			writeSample(bw, f.name+"_count", labels, formatInt(cum))
		}
	}
}

// renderLabels renders one series' label set as `{k="v",...}` (empty string
// for an unlabeled series), optionally appending one extra pair — the
// histogram `le` label.
func (f *family) renderLabels(k labelKey, extraName, extraVal string) string {
	if len(f.labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(k[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(f.labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func writeSample(bw *bufio.Writer, name, labels, value string) {
	bw.WriteString(name)
	bw.WriteString(labels)
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline (quotes are legal
// in HELP text).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
