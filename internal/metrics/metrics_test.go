package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Errorf("gauge = %d, want 4", g.Load())
	}
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("cells_total", "cells", "app", "backend")
	a := v.With("FFT", "genima")
	b := v.With("FFT", "genima")
	if a != b {
		t.Error("same label values resolved different children")
	}
	other := v.With("FFT", "cables")
	if a == other {
		t.Error("different label values shared a child")
	}
	a.Add(2)
	other.Inc()
	if a.Load() != 2 || other.Load() != 1 {
		t.Errorf("children cross-talk: %d %d", a.Load(), other.Load())
	}
}

// TestHotPathsAllocFree: the instrument paths the farm takes per cell and
// per request — Inc on a cached child, With+Inc, and a histogram Observe —
// must not allocate.
func TestHotPathsAllocFree(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("cells_total", "cells", "app", "backend", "outcome")
	cached := cv.With("FFT", "genima", "done")
	h := r.HistogramVec("run_seconds", "runs", nil, "app", "backend", "outcome").With("FFT", "genima", "done")
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"cached Inc", func() { cached.Inc() }},
		{"With+Inc", func() { cv.With("FFT", "genima", "done").Inc() }},
		{"Observe", func() { h.Observe(0.042) }},
	} {
		if n := testing.AllocsPerRun(1000, c.op); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, n)
		}
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "x", "app")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("a", "b")
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate family name did not panic")
		}
	}()
	r.Gauge("dup_total", "second")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.05} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.05+0.5+5+0.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestQuantile pins the interpolation math cablesim top relies on.
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "q", []float64{0.1, 0.2, 0.4})
	// 10 observations uniformly in (0.1, 0.2]: the quantile interpolates
	// inside that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.15)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	p50, ok := s.Quantile("q_seconds", 0.5, nil)
	if !ok || p50 <= 0.1 || p50 > 0.2 {
		t.Errorf("p50 = %v ok=%t, want within (0.1, 0.2]", p50, ok)
	}
	if _, ok := s.Quantile("absent_seconds", 0.5, nil); ok {
		t.Error("quantile of an absent histogram reported ok")
	}
}

// TestParseRoundTrip: everything the writer emits, the parser reads back
// with identical names, labels (escapes included), and values.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rt_total", "round trip", "app", "note")
	v.With("FFT", `quote " slash \ newline`+"\n").Add(3)
	g := r.Gauge("rt_gauge", "g")
	g.Set(-12)
	h := r.HistogramVec("rt_seconds", "h", []float64{0.5}, "outcome")
	h.With("done").Observe(0.25)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	if got, ok := s.Value("rt_total", map[string]string{"app": "FFT"}); !ok || got != 3 {
		t.Errorf("rt_total = %v ok=%t, want 3", got, ok)
	}
	// The escaped label value must round-trip to the original bytes.
	found := false
	for _, sm := range s.Samples {
		if sm.Name == "rt_total" && sm.Labels["note"] == `quote " slash \ newline`+"\n" {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label value did not round-trip:\n%s", b.String())
	}
	if got, ok := s.Value("rt_gauge", nil); !ok || got != -12 {
		t.Errorf("rt_gauge = %v ok=%t, want -12", got, ok)
	}
	if got, ok := s.Value("rt_seconds_count", map[string]string{"outcome": "done"}); !ok || got != 1 {
		t.Errorf("rt_seconds_count = %v ok=%t, want 1", got, ok)
	}
	if s.Type["rt_seconds"] != KindHistogram || s.Type["rt_total"] != KindCounter {
		t.Errorf("TYPE headers not parsed: %v", s.Type)
	}
}

// TestConcurrentUse hammers one registry from many goroutines — increments,
// label resolution, observations, and scrapes all at once — and checks the
// totals.  Run under -race this is the package's data-race gate.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conc_total", "c", "worker")
	h := r.Histogram("conc_seconds", "h", nil)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := v.With(string(rune('a' + w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i) / perWorker)
			}
		}()
	}
	// Concurrent scrapes while writers run.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseText(strings.NewReader(b.String())); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for w := 0; w < workers; w++ {
		total += v.With(string(rune('a' + w))).Load()
	}
	if total != workers*perWorker {
		t.Errorf("lost increments: %d, want %d", total, workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("lost observations: %d, want %d", h.Count(), workers*perWorker)
	}
}
