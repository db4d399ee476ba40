// Package metrics is the simulator's dependency-free operational telemetry
// plane: a registry of typed Counter/Gauge/Histogram instruments with label
// sets, rendered in Prometheus text exposition format (expo.go) and parsed
// back by the same package (parse.go), so `cablesim top` and the smoke tests
// consume exactly what `GET /metrics` serves.
//
// The hot-path discipline mirrors internal/stats: an instrument increment is
// one atomic add on a cache-line-padded word — no locks, no allocations, no
// formatting.  Labeled families resolve a label-value tuple to its child
// instrument through a read-locked map keyed by a fixed-size array (so the
// lookup itself is allocation-free); call sites on genuinely hot paths
// resolve once and cache the child pointer, exactly as they would cache a
// stats lane.  All rendering cost is paid at scrape time by the reader.
//
// These are host-side service metrics (real time), entirely separate from
// the virtual-time counters of internal/stats; attaching, scraping, or
// dropping them can never change a simulated result.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is the instrument type of a family, named as Prometheus spells it in
// `# TYPE` lines.
type Kind string

// The instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// MaxLabels is the most labels one family may declare.  The bound is what
// makes label resolution allocation-free: label-value tuples are fixed-size
// arrays, usable directly as map keys.
const MaxLabels = 6

// labelKey is one series' label-value tuple, the child-map key.
type labelKey [MaxLabels]string

// Counter is a monotonically increasing instrument.  The value is one
// padded atomic word: Add is wait-free and allocation-free, the same
// discipline as an internal/stats lane.
type Counter struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line so adjacent counters never false-share
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add accumulates d (d must be >= 0 for the exposition to stay a counter).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a current-value instrument (may go up and down).
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add accumulates d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a latency/size distribution: per-bucket atomic counts over
// fixed upper bounds, plus a running sum and total count.  Observe is
// lock-free (one linear bucket scan, two atomic adds, one CAS loop for the
// float sum) and allocation-free.
type Histogram struct {
	upper  []float64 // ascending bucket upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1) // i == len(upper) is the +Inf bucket
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefLatencyBuckets are the default upper bounds (seconds) for latency
// histograms: 1 ms to 60 s, roughly logarithmic — wide enough for both an
// HTTP handler and a full-scale simulation cell.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// family is one named metric family: kind, help, label names, and the child
// series keyed by label-value tuple.
type family struct {
	name    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only
	header  string    // rendered `# HELP` and `# TYPE` lines
	le      []string  // histograms only: rendered `le` labels, +Inf last

	mu     sync.RWMutex
	series map[labelKey]any // *Counter, *Gauge, or *Histogram
}

// child resolves (creating on first use) the series for key.  The read path
// is a shared-lock map lookup on an array key: no allocation.
func (f *family) child(key labelKey) any {
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	switch f.kind {
	case KindCounter:
		s = &Counter{}
	case KindGauge:
		s = &Gauge{}
	case KindHistogram:
		s = &Histogram{upper: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1)}
	}
	f.series[key] = s
	return s
}

// keyOf validates a label-value tuple against the family's declared labels
// and packs it into the fixed-size map key.
func (f *family) keyOf(values []string) labelKey {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: family %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	var k labelKey
	copy(k[:], values)
	return k
}

// CounterVec is a labeled counter family; With resolves one child.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values (in the order
// the labels were declared).  The returned pointer is stable — hot call
// sites resolve once and cache it.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(v.f.keyOf(values)).(*Counter)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(v.f.keyOf(values)).(*Histogram)
}

// Registry holds a set of metric families and renders them for scraping.
// Registration happens at service construction; instruments are then used
// concurrently without further coordination with the registry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate name or too many labels
// (both are construction-time programming errors, not runtime conditions).
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if len(labels) > MaxLabels {
		panic(fmt.Sprintf("metrics: family %s declares %d labels; max %d", name, len(labels), MaxLabels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("metrics: duplicate family " + name)
	}
	f := &family{
		name: name, kind: kind,
		labels: labels, buckets: buckets,
		header: header(name, help, kind),
		series: make(map[labelKey]any),
	}
	if kind == KindHistogram {
		f.le = leLabels(buckets)
	}
	r.families[name] = f
	return f
}

// Counter registers an unlabeled counter family and returns its single
// instrument.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.child(labelKey{}).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// Gauge registers an unlabeled gauge family and returns its instrument.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.child(labelKey{}).(*Gauge)
}

// Histogram registers an unlabeled histogram family with the given ascending
// bucket upper bounds (nil selects DefLatencyBuckets) and returns its
// instrument.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	}
	f := r.register(name, help, KindHistogram, nil, buckets)
	return f.child(labelKey{}).(*Histogram)
}

// HistogramVec registers a labeled histogram family (nil buckets selects
// DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	}
	return &HistogramVec{r.register(name, help, KindHistogram, labels, buckets)}
}

// Families returns the registered family names, sorted — the inventory
// cmd/doccheck checks docs/OBSERVABILITY.md against (farm.MetricFamilies).
func (r *Registry) Families() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
