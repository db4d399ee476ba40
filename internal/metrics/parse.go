package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name (for histograms the
// suffixed `_bucket`/`_sum`/`_count` form), its label set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is one parsed exposition payload — what `cablesim top` builds from
// each poll of `GET /metrics`.
type Scrape struct {
	// Help and Type index the `# HELP` / `# TYPE` headers by family name.
	Help map[string]string
	Type map[string]Kind
	// Samples are the data lines in document order.
	Samples []Sample
}

// ParseText parses a Prometheus text exposition payload.  It is strict about
// everything the writer produces (header shape, quoting, escapes) and
// returns an error with the offending line on any malformed input.
func ParseText(r io.Reader) (*Scrape, error) {
	s := &Scrape{Help: map[string]string{}, Type: map[string]Kind{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := s.parseHeader(line); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		s.Samples = append(s.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseHeader consumes a `# HELP name text` or `# TYPE name kind` line
// (other comments are ignored, as the format allows).
func (s *Scrape) parseHeader(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return nil // free-form comment
	}
	switch fields[1] {
	case "HELP":
		text := ""
		if len(fields) == 4 {
			text = fields[3]
		}
		s.Help[fields[2]] = text
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		kind := Kind(fields[3])
		if kind != KindCounter && kind != KindGauge && kind != KindHistogram {
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		s.Type[fields[2]] = kind
	}
	return nil
}

// parseSample consumes one `name{k="v",...} value` data line.
func parseSample(line string) (Sample, error) {
	sm := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return sm, fmt.Errorf("malformed sample %q", line)
	}
	sm.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, sm.Labels)
		if err != nil {
			return sm, fmt.Errorf("%v in %q", err, line)
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	v, err := parseValue(rest)
	if err != nil {
		return sm, fmt.Errorf("bad value %q in %q", rest, line)
	}
	sm.Value = v
	return sm, nil
}

// parseLabels consumes a `{k="v",...}` block starting at s[0] == '{' and
// returns the index just past the closing brace.  Escapes in values
// (\\, \", \n) are decoded.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label without '='")
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value for %s", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in label %s", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c in label %s", s[i+1], name)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		out[name] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// parseValue parses a sample value, accepting the +Inf/-Inf/NaN spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Value returns the sample with the given name whose labels are a superset
// of want (nil matches the first sample of that name).
func (s *Scrape) Value(name string, want map[string]string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.Name != name || !labelsMatch(sm.Labels, want) {
			continue
		}
		return sm.Value, true
	}
	return 0, false
}

// SumBy sums every sample of the given name, grouped by one label's value
// (samples missing the label group under "").
func (s *Scrape) SumBy(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, sm := range s.Samples {
		if sm.Name == name {
			out[sm.Labels[label]] += sm.Value
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of a histogram family from
// its cumulative `_bucket` samples, aggregated across all series whose
// labels are a superset of want.  It interpolates linearly within the
// bucket containing the target rank; an empty histogram returns (0, false).
func (s *Scrape) Quantile(histName string, q float64, want map[string]string) (float64, bool) {
	// Aggregate cumulative counts per le across matching series.
	type bucket struct {
		le  float64
		cum float64
	}
	byLE := map[float64]float64{}
	for _, sm := range s.Samples {
		if sm.Name != histName+"_bucket" || !labelsMatch(sm.Labels, want) {
			continue
		}
		le, err := parseValue(sm.Labels["le"])
		if err != nil {
			continue
		}
		byLE[le] += sm.Value
	}
	if len(byLE) == 0 {
		return 0, false
	}
	buckets := make([]bucket, 0, len(byLE))
	for le, cum := range byLE {
		buckets = append(buckets, bucket{le, cum})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	rank := float64(q * total)
	prevLE, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) { // the +Inf bucket: report the last finite bound
				return prevLE, true
			}
			span := b.cum - prevCum
			if span <= 0 {
				return b.le, true
			}
			return prevLE + (b.le-prevLE)*(rank-prevCum)/span, true
		}
		prevLE, prevCum = b.le, b.cum
	}
	return buckets[len(buckets)-1].le, true
}

// labelsMatch reports whether have contains every pair of want.
func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}
