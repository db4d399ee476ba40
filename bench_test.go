// Package repro exposes the experiment harness as Go benchmarks: one bench
// per table and figure of the paper (run them all with
// `go test -bench=. -benchmem`).  Each benchmark regenerates its artifact
// and reports the headline virtual-time quantities as custom metrics, so
// `go test -bench` output doubles as a compact reproduction log.
//
// Benchmarks default to the fast "test" problem scale; set
// CABLES_SCALE=paper for the evaluation sizes used in EXPERIMENTS.md.
package repro

import (
	"io"
	"os"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/apps/fft"
	"cables/internal/apps/omp"
	"cables/internal/bench"
	cables "cables/internal/core"
	"cables/internal/openmp"
	"cables/internal/sim"
)

func scale() bench.Scale {
	if os.Getenv("CABLES_SCALE") == "paper" {
		return bench.ScalePaper
	}
	return bench.ScaleTest
}

// runCell runs one default-configured cell at the benchmark scale.
func runCell(app, backend string, procs int, costs *sim.Costs) bench.CellRun {
	return bench.RunCell(app, backend, procs, scale(), costs, bench.CellOptions{}, bench.Attach{})
}

// BenchmarkTable3_VMMCCosts regenerates Table 3 (basic VMMC costs).
func BenchmarkTable3_VMMCCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(io.Discard)
	}
}

// BenchmarkTable4_BasicEvents regenerates Table 4 (CableS basic-event
// costs with breakdowns).
func BenchmarkTable4_BasicEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4(io.Discard)
	}
}

// BenchmarkTable5_PthreadsPrograms regenerates Table 5 (PN, PC, PIPE and
// the OpenMP programs with per-operation costs).
func BenchmarkTable5_PthreadsPrograms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table5(io.Discard, scale(), 1)
	}
}

// BenchmarkTable6_OpenMPSpeedups regenerates Table 6 (OpenMP SPLASH-2
// speedups on 4/8/16 processors).
func BenchmarkTable6_OpenMPSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table6(io.Discard, scale(), 1)
	}
}

// benchFig5App runs one application of Figure 5 on both systems at the
// given processor count and reports the parallel-section virtual times.
func benchFig5App(b *testing.B, app string, procs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		g := runCell(app, bench.BackendGenima, procs, nil)
		c := runCell(app, bench.BackendCables, procs, nil)
		if i == b.N-1 {
			if g.Err == nil {
				b.ReportMetric(g.Res.Parallel.Millis(), "genima-vms")
			}
			if c.Err == nil {
				b.ReportMetric(c.Res.Parallel.Millis(), "cables-vms")
				b.ReportMetric(c.Res.MisplacedPct(), "misplaced-%")
			}
		}
	}
}

// BenchmarkFig5_* regenerate Figure 5 (one per application, at 8
// processors; the cablesim CLI sweeps the full 1..32 range).

func BenchmarkFig5_FFT(b *testing.B)      { benchFig5App(b, "FFT", 8) }
func BenchmarkFig5_LU(b *testing.B)       { benchFig5App(b, "LU", 8) }
func BenchmarkFig5_OCEAN(b *testing.B)    { benchFig5App(b, "OCEAN", 8) }
func BenchmarkFig5_RADIX(b *testing.B)    { benchFig5App(b, "RADIX", 8) }
func BenchmarkFig5_WATER(b *testing.B)    { benchFig5App(b, "WATER-SPATIAL", 8) }
func BenchmarkFig5_WATERFL(b *testing.B)  { benchFig5App(b, "WATER-SPAT-FL", 8) }
func BenchmarkFig5_VOLREND(b *testing.B)  { benchFig5App(b, "VOLREND", 8) }
func BenchmarkFig5_RAYTRACE(b *testing.B) { benchFig5App(b, "RAYTRACE", 8) }

// BenchmarkFig6_Misplacement regenerates Figure 6's metric across all
// applications at 8 processors on CableS.
func BenchmarkFig6_Misplacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0.0
		for _, app := range bench.AppNames {
			if r := runCell(app, bench.BackendCables, 8, nil); r.Err == nil {
				total += r.Res.MisplacedPct()
			}
		}
		if i == b.N-1 {
			b.ReportMetric(total/float64(len(bench.AppNames)), "avg-misplaced-%")
		}
	}
}

// BenchmarkLimits_Tables1and2 regenerates the registration-limit
// demonstration (Tables 1/2: base system fails, CableS survives).
func BenchmarkLimits_Tables1and2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Limits(io.Discard)
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblation_MapGranularity4K reruns the worst misplacement victim
// (VOLREND) with 4 KB OS mapping granularity — the paper's planned Linux
// port — and reports that misplacement vanishes.
func BenchmarkAblation_MapGranularity4K(b *testing.B) {
	costs := sim.DefaultCosts()
	costs.MapGranularity = 4 << 10
	for i := 0; i < b.N; i++ {
		r := runCell("VOLREND", bench.BackendCables, 8, costs)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Res.MisplacedPct(), "misplaced-%")
			b.ReportMetric(r.Res.Parallel.Millis(), "cables-vms")
		}
	}
}

// BenchmarkAblation_RoundRobinPlacement replaces first-touch home placement
// with round-robin in the CableS allocator and measures the damage on a
// single-writer application (FFT).
func BenchmarkAblation_RoundRobinPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt := cables.NewM4(cables.M4Config{Procs: 8, ProcsPerNode: 2,
			ArenaBytes: 256 << 20, Placement: "roundrobin"})
		res := runFFTOn(rt)
		if i == b.N-1 {
			b.ReportMetric(res.Parallel.Millis(), "roundrobin-vms")
		}
		rt2 := cables.NewM4(cables.M4Config{Procs: 8, ProcsPerNode: 2, ArenaBytes: 256 << 20})
		res2 := runFFTOn(rt2)
		if i == b.N-1 {
			b.ReportMetric(res2.Parallel.Millis(), "firsttouch-vms")
		}
	}
}

// BenchmarkAblation_CentralVsNativeBarrier compares the pthread_barrier
// extension against the literal mutex+cond barrier across 8 threads.
func BenchmarkAblation_CentralVsNativeBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt := cables.New(cables.Config{MaxNodes: 4, ProcsPerNode: 2, CoordinatorMain: true})
		main := rt.Start()
		cb, err := rt.NewCentralBarrier(main.Task, 8)
		if err != nil {
			b.Fatal(err)
		}
		var nat, cen sim.Time
		done := make(chan [2]sim.Time, 8)
		for w := 0; w < 8; w++ {
			rt.Create(main.Task, func(th *cables.Thread) {
				rt.Barrier(th.Task, "align", 8)
				t0 := th.Task.Now()
				rt.Barrier(th.Task, "native", 8)
				t1 := th.Task.Now()
				cb.Wait(th)
				t2 := th.Task.Now()
				done <- [2]sim.Time{t1 - t0, t2 - t1}
			})
		}
		for w := 0; w < 8; w++ {
			d := <-done
			if d[0] > nat {
				nat = d[0]
			}
			if d[1] > cen {
				cen = d[1]
			}
		}
		if i == b.N-1 {
			b.ReportMetric(nat.Micros(), "native-vus")
			b.ReportMetric(cen.Micros(), "central-vus")
		}
	}
}

// BenchmarkAblation_OpenMPPoolWarmup quantifies what thread pooling saves:
// region dispatch on a warm pool vs pool creation with node attaches.
func BenchmarkAblation_OpenMPPoolWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := openmp.New(openmp.Config{Procs: 8, ProcsPerNode: 2})
		main := r.Main()
		t0 := main.Now()
		r.Warmup()
		warm := main.Now() - t0
		t1 := main.Now()
		r.Parallel(func(o *omp.OMP) { o.Task().Compute(10 * sim.Microsecond) })
		region := main.Now() - t1
		r.Close()
		if i == b.N-1 {
			b.ReportMetric(warm.Millis(), "pool-create-vms")
			b.ReportMetric(region.Millis(), "warm-region-vms")
		}
	}
}

func runFFTOn(rt *cables.M4Runtime) appapi.Result {
	m := 12
	if scale() == bench.ScalePaper {
		m = 16
	}
	return fft.Run(rt, fft.Config{M: m})
}
