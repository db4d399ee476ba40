package main

import (
	"math"
	"sort"
)

// minBeyond is the guide's reporting rule: a percentile is only reported
// when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method; xs need not be sorted.  It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile returns the highest of want and the fallbacks below it
// that has at least minBeyond samples beyond it, and its value.  With too
// few samples for any of them it falls back to the median, so a workload
// that yields three samples reports its median twice rather than a "p99"
// that is really its maximum.
func tailPercentile(xs []float64, want float64) (p, v float64) {
	for _, c := range []float64{99, 95, 90} {
		if c <= want && beyond(len(xs), c) >= minBeyond {
			return c, percentile(xs, c)
		}
	}
	return 50, median(xs)
}

// median is the 50th percentile with the usual mean-of-middle-pair rule
// for even counts, so two samples do not collapse to the lower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile by the exclusive method —
// the same cut points Python's statistics.quantiles(xs, n=4) gives, which
// is what the acceptance driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		v := median(s)
		return v, v
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// worseBy returns by what share of the base median the other median is
// worse, given the metric's direction; negative means better.
func worseBy(base, other float64, lowerIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (other - base) / math.Abs(base)
	if !lowerIsBetter {
		d = -d
	}
	return d
}

// verdict applies the guide's comparison rule to two sets of runs of one
// (workload, metric).  A difference counts only when the medians differ by
// more than the parent's own inter-quartile spread; it is "worse" only
// beyond the metric's bound; and where the parent's spread is wider than the
// bound a small difference is "unresolved", not "same" — unless every run of
// the change reads better than every run of the parent.
func verdict(parent, change []float64, lowerIsBetter bool, bound float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return "missing"
	}
	by := worseBy(median(parent), median(change), lowerIsBetter)
	noise := spread(parent)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if worseBy(p, c, lowerIsBetter) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case by > bound && by > noise:
		return "worse"
	case by < 0 && (-by > noise || allBetter):
		return "better"
	case noise > bound:
		return "unresolved"
	default:
		return "same"
	}
}
