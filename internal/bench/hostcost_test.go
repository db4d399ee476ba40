package bench

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"cables/internal/coherence"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/metrics"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
	"cables/internal/wire"
)

// budgetBatches is how many timed batches each path gets; the fastest one
// counts, since host noise can only make a batch slower.
const budgetBatches = 5

// budgetPol is package-level so the compiler cannot devirtualize the
// dispatch under test: it pays the indirect calls the flush path pays.
var budgetPol coherence.Protocol = coherence.MustNew(coherence.ProtoGenima)

// TestHostCostBudgets bounds the host time of the simulator's always-on
// hot paths as a fraction of one flush — a non-home writer dirtying 8
// pages and releasing them (8 twins, 8 remote diffs, one write-notice
// publication), the representative protocol operation.  Ratios measured on
// the same host hold on any host speed.  The zero-allocation half of each
// property is deterministic and is tested beside the code that owns it
// (wire, coherence, sim, metrics); this is the timing half.
func TestHostCostBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("host timing under -short")
	}
	flush := flushNs(t)

	fab := san.New(4, sim.DefaultCosts(), stats.NewCounters(4))
	plane := wire.New(fab, vmmc.NewSystem(fab, vmmc.DefaultLimits()), wire.Options{})
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	reg, cells := farmShapedRegistry()
	cached := cells.With("FFT", "genima", "done")

	for _, c := range []struct {
		name  string
		limit float64 // max host cost as a fraction of one flush
		iters int
		op    func()
	}{
		{"plane_do", 0.02, 2000, func() { plane.Do(task, wire.Op{Kind: wire.KindAdminReq, Dst: 1}) }},
		{"detached_span", 0.005, 100000, func() {
			task.OpenSpan(1, 0)
			task.CloseSpan()
		}},
		{"protocol_dispatch", 0.01, 20000, func() { // one 8-diff flush's consultations
			budgetPol.Merge()
			for p := 0; p < 8; p++ {
				budgetPol.MergeDiff(1, memsys.PageID(p), 0, 128)
			}
		}},
		{"metrics_inc", 0.001, 100000, func() { cached.Inc() }},
		{"metrics_with_inc", 0.005, 20000, func() { cells.With("FFT", "genima", "done").Inc() }},
		{"metrics_scrape", 2, 20, func() { _ = reg.WritePrometheus(io.Discard) }}, // io.Discard never fails a write
	} {
		t.Run(c.name, func(t *testing.T) {
			ns := bestNs(c.iters, func(n int) {
				for i := 0; i < n; i++ {
					c.op()
				}
			})
			msg := fmt.Sprintf("%.1f ns/op is %.4g of a %.0f ns flush, limit %g", ns, ns/flush, flush, c.limit)
			if ns/flush > c.limit {
				t.Error(msg)
			} else {
				t.Log(msg)
			}
		})
	}
}

// bestNs times op(n) budgetBatches times and returns the fastest batch's
// nanoseconds per operation.
func bestNs(n int, op func(n int)) float64 {
	best := math.Inf(1)
	for b := 0; b < budgetBatches; b++ {
		start := time.Now()
		op(n)
		best = math.Min(best, float64(time.Since(start))/float64(n))
	}
	return best
}

// flushNs times the yardstick: a node-1 writer stores sparsely into 8
// pages homed on node 0 and flushes them.
func flushNs(t *testing.T) float64 {
	rt := m4.New(m4.Config{Procs: 4, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	main, acc := rt.Main(), rt.Acc()
	addr, err := rt.Malloc(main, "flushbudget", 8<<12)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		acc.WriteI64(main, addr+memsys.Addr(p<<12), 1) // first touch homes the page on node 0
	}
	rt.Protocol().Flush(main)
	rt.Join(main, rt.Spawn(main, func(*sim.Task) {})) // round-robin: this one lands on node 0
	var ns float64
	rt.Join(main, rt.Spawn(main, func(th *sim.Task) {
		if th.NodeID == 0 {
			t.Error("flush writer landed on the home node")
			return
		}
		v := int64(0)
		ns = bestNs(40, func(n int) {
			for i := 0; i < n; i++ {
				v++
				for p := 0; p < 8; p++ {
					for w := 0; w < 512; w += 3 {
						acc.WriteI64(th, addr+memsys.Addr(p<<12+w*8), v+int64(w))
					}
				}
				rt.Protocol().Flush(th)
			}
		})
	}))
	return ns
}

// farmShapedRegistry builds a registry shaped like the farm's: plain
// counters and gauges, a labeled counter family, and labeled latency
// histograms with populated series.  It returns the counter family too.
func farmShapedRegistry() (*metrics.Registry, *metrics.CounterVec) {
	r := metrics.NewRegistry()
	for i := 0; i < 6; i++ {
		r.Counter(fmt.Sprintf("budget_plain_%d_total", i), "plain counter").Add(int64(i))
		r.Gauge(fmt.Sprintf("budget_gauge_%d", i), "gauge").Set(int64(i))
	}
	cv := r.CounterVec("budget_cells_total", "labeled counter", "app", "backend", "outcome")
	hv := r.HistogramVec("budget_run_seconds", "labeled histogram", nil, "app", "backend", "outcome")
	for _, app := range []string{"FFT", "LU", "OCEAN", "BARNES"} {
		for _, backend := range []string{"genima", "cables"} {
			cv.With(app, backend, "done").Add(100)
			h := hv.With(app, backend, "done")
			for i := 0; i < 32; i++ {
				h.Observe(float64(i) / 10)
			}
		}
	}
	return r, cv
}
