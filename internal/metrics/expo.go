package metrics

import (
	"io"
	"slices"
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
// The text is appended to one buffer and written in a single call; the
// family headers and `le` labels are rendered once, at registration.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })

	var b, prefix []byte
	var series []seriesRef
	for _, f := range fams {
		b = append(b, f.header...)
		b, prefix, series = f.appendSeries(b, prefix, series)
	}
	_, err := w.Write(b)
	return err
}

// seriesRef is one series captured for rendering.
type seriesRef struct {
	key  labelKey
	inst any
}

// header renders a family's `# HELP` and `# TYPE` lines.
func header(name, help string, kind Kind) string {
	return "# HELP " + name + " " + escapeHelp(help) + "\n# TYPE " + name + " " + string(kind) + "\n"
}

// leLabels renders a histogram's `le` label pairs, closing brace included,
// one per bucket and a last one for `+Inf`.
func leLabels(buckets []float64) []string {
	out := make([]string, 0, len(buckets)+1)
	for _, ub := range buckets {
		out = append(out, `le="`+strconv.FormatFloat(ub, 'g', -1, 64)+`"}`)
	}
	return append(out, `le="+Inf"}`)
}

// appendSeries appends every series of one family to b, sorted by label
// values.  prefix and series are scratch buffers reused across families.
func (f *family) appendSeries(b, prefix []byte, series []seriesRef) ([]byte, []byte, []seriesRef) {
	f.mu.RLock()
	series = series[:0]
	for k, s := range f.series {
		series = append(series, seriesRef{k, s})
	}
	f.mu.RUnlock()
	slices.SortFunc(series, func(x, y seriesRef) int {
		for l := range f.labels {
			if c := strings.Compare(x.key[l], y.key[l]); c != 0 {
				return c
			}
		}
		return 0
	})

	for _, s := range series {
		// prefix is the series' label set without its closing brace:
		// `{k="v",...`, or empty for an unlabeled series.
		prefix = prefix[:0]
		for i, name := range f.labels {
			if i == 0 {
				prefix = append(prefix, '{')
			} else {
				prefix = append(prefix, ',')
			}
			prefix = append(prefix, name...)
			prefix = append(prefix, `="`...)
			prefix = append(prefix, escapeLabel(s.key[i])...)
			prefix = append(prefix, '"')
		}
		switch c := s.inst.(type) {
		case interface{ Load() int64 }: // *Counter, *Gauge
			b = appendSample(b, f.name, "", prefix)
			b = strconv.AppendInt(b, c.Load(), 10)
			b = append(b, '\n')
		case *Histogram:
			// Cumulative buckets: each le value includes all smaller ones.
			// The +Inf bucket (the last le label) is by definition the
			// total count.  Loading the overflow bucket last means a
			// concurrent Observe can make the rendered +Inf only >= the
			// buckets below it, never smaller.
			cum := int64(0)
			for bi, le := range f.le {
				cum += c.counts[bi].Load()
				b = append(b, f.name...)
				b = append(b, "_bucket"...)
				if len(prefix) == 0 {
					b = append(b, '{')
				} else {
					b = append(b, prefix...)
					b = append(b, ',')
				}
				b = append(b, le...)
				b = append(b, ' ')
				b = strconv.AppendInt(b, cum, 10)
				b = append(b, '\n')
			}
			b = appendSample(b, f.name, "_sum", prefix)
			b = strconv.AppendFloat(b, c.Sum(), 'g', -1, 64)
			b = append(b, '\n')
			b = appendSample(b, f.name, "_count", prefix)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
		}
	}
	return b, prefix, series
}

// appendSample appends a sample line up to its value: name, suffix, the
// label set (prefix closed by a brace, if any) and a space.
func appendSample(b []byte, name, suffix string, prefix []byte) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(prefix) > 0 {
		b = append(b, prefix...)
		b = append(b, '}')
	}
	return append(b, ' ')
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
