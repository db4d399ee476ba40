package openmp

import (
	"testing"

	"cables/internal/sim"
	"cables/internal/stats"
)

func newOMP(procs int) *Runtime {
	return New(Config{Procs: procs, ProcsPerNode: 2})
}

// TestParallelForCoversRangeExactlyOnce: static scheduling partitions the
// iteration space without gaps or overlaps.
func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	r := newOMP(4)
	const n = 103 // deliberately not divisible by 4
	seen := make([]int, n)
	r.Parallel(func(o *OMP) {
		o.For(0, n, func(i int) {
			seen[i]++
		})
	})
	r.Close()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

// TestCriticalIsMutuallyExclusive: concurrent criticals serialize.
func TestCriticalIsMutuallyExclusive(t *testing.T) {
	r := newOMP(8)
	counter := 0
	r.Parallel(func(o *OMP) {
		for i := 0; i < 25; i++ {
			o.Critical("c", func() { counter++ })
		}
	})
	r.Close()
	if counter != 8*25 {
		t.Errorf("counter: %d", counter)
	}
}

// TestBarrierSynchronizesRegions: within a region, a barrier merges
// virtual clocks.
func TestBarrierSynchronizesRegions(t *testing.T) {
	r := newOMP(4)
	var maxBefore, minAfter sim.Time
	minAfter = 1 << 62
	r.Parallel(func(o *OMP) {
		o.Task().Compute(sim.Time(o.TID()+1) * sim.Millisecond)
		if now := o.Task().Now(); now > maxBefore {
			maxBefore = now
		}
		o.Barrier()
		if now := o.Task().Now(); now < minAfter {
			minAfter = now
		}
	})
	r.Close()
	if minAfter < maxBefore {
		t.Errorf("barrier did not merge clocks: maxBefore=%v minAfter=%v", maxBefore, minAfter)
	}
}

// TestPoolReuseAcrossRegions: the pool attaches nodes once; subsequent
// regions reuse threads (no further creates).
func TestPoolReuseAcrossRegions(t *testing.T) {
	r := newOMP(8)
	r.Warmup()
	created := r.Cluster().Ctr.Load(stats.EvThreadsCreated)
	for i := 0; i < 5; i++ {
		r.Parallel(func(o *OMP) { o.Task().Compute(sim.Microsecond) })
	}
	if got := r.Cluster().Ctr.Load(stats.EvThreadsCreated); got != created {
		t.Errorf("regions created %d extra threads", got-created)
	}
	r.Close()
}

// TestStatsRecording: with a collector attached, ops are measured.
func TestStatsRecording(t *testing.T) {
	r := newOMP(2)
	r.Stats = &stats.OpStats{}
	r.Parallel(func(o *OMP) {
		o.Critical("x", func() {})
		o.Barrier()
	})
	r.Close()
	for _, op := range []string{"create", "mutex_lock", "barrier"} {
		if _, n := r.Stats.Avg(op); n == 0 {
			t.Errorf("op %q not recorded", op)
		}
	}
}

// TestForNowaitSkipsBarrier: nowait loops do not synchronize.
func TestForNowaitSkipsBarrier(t *testing.T) {
	r := newOMP(2)
	ends := map[int]sim.Time{}
	r.Parallel(func(o *OMP) {
		if o.TID() == 1 {
			o.Task().Compute(10 * sim.Millisecond)
		}
		o.ForNowait(0, 2, func(int) {})
		ends[o.TID()] = o.Task().Now()
	})
	r.Close()
	if ends[0] >= 10*sim.Millisecond {
		t.Errorf("nowait loop synchronized: thread 0 ended at %v", ends[0])
	}
}
