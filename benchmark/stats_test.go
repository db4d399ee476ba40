package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 3}); got != 2 {
		t.Errorf("median(1,3) = %v, want 2", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, tail float64
	}{
		{1000, 99, 99}, // exactly ten beyond p99
		{999, 99, 95},  // nine beyond p99: fall back
		{200, 95, 95},  // exactly ten beyond p95
		{199, 95, 90},
		{100, 95, 90}, // ten beyond p90
		{99, 95, 50},  // nothing qualifies: the median
		{3, 50, 50},
		{12000, 95, 95}, // never above what the workload declared
	} {
		p, v := tailPercentile(seq(c.n), c.want)
		if p != c.tail {
			t.Errorf("n=%d want p%v: reported p%v, want p%v", c.n, c.want, p, c.tail)
		}
		if p != 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, beyond(c.n, p))
		}
		if want := percentile(seq(c.n), p); p != 50 && v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
	}
}

// quartiles must give what Python's statistics.quantiles(xs, n=4) gives,
// because the acceptance driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, q3 = quartiles([]float64{10, 20, 30})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles = %v, %v; want 10, 30", q1, q3)
	}
	if s := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (5.25-1.75)/3.5", s)
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	noisy := []float64{100, 140, 70, 120, 80, 130, 60, 110, 90, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           string
	}{
		{"identical", tight, tight, true, "same"},
		{"slower beyond bound", tight, scale(tight, 1.2), true, "worse"},
		{"faster beyond spread", tight, scale(tight, 0.8), true, "better"},
		{"throughput drop", tight, scale(tight, 0.8), false, "worse"},
		{"small drift inside bound", tight, scale(tight, 1.05), true, "same"},
		{"noise wider than bound", noisy, scale(noisy, 1.05), true, "unresolved"},
		{"every run better despite noise", noisy, scale(noisy, 0.3), true, "better"},
		{"no data", nil, tight, true, "missing"},
	} {
		if got := verdict(c.parent, c.change, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
