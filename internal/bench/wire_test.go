package bench

import (
	"testing"

	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// releaseBurstWorkload is a strictly sequential (host-schedule-independent)
// genima run in which each worker dirties many remote-homed pages inside
// one critical section, so every release flushes a burst of diffs to one
// home.  It returns the run's counters and virtual end time.
func releaseBurstWorkload(t *testing.T) (*stats.Counters, sim.Time) {
	t.Helper()
	rt := newRuntime(BackendGenima, 6, 64<<20, nil, CellOptions{})
	main := rt.Main()
	acc := rt.Acc()
	a, err := rt.Malloc(main, "seq", 256<<10)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	// Master first-touches every page, homing them all on node 0; workers on
	// the other nodes then dirty 10 pages per critical section.
	for p := 0; p < 64; p++ {
		acc.WriteI64(main, a+memsys.Addr(p*memsys.PageSize), int64(p))
	}
	for wkr := 0; wkr < 6; wkr++ {
		id := rt.Spawn(main, func(task *sim.Task) {
			base := a + memsys.Addr(wkr*10*memsys.PageSize)
			rt.Lock(task, 1)
			for p := 0; p < 10; p++ {
				addr := base + memsys.Addr(p*memsys.PageSize)
				acc.WriteI64(task, addr, acc.ReadI64(task, addr)+int64(wkr+p))
			}
			rt.Unlock(task, 1)
		})
		rt.Join(main, id)
	}
	// Validate the data survived the flushes.
	sum := int64(0)
	for p := 0; p < 64; p++ {
		sum += acc.ReadI64(main, a+memsys.Addr(p*memsys.PageSize))
	}
	want := int64(0)
	for p := 0; p < 64; p++ {
		want += int64(p)
	}
	for wkr := 0; wkr < 6; wkr++ {
		for p := 0; p < 10; p++ {
			want += int64(wkr + p)
		}
	}
	if sum != want {
		t.Fatalf("data corrupted: checksum %d, want %d", sum, want)
	}
	end := rt.Finish()
	return rt.Cluster().Ctr, end
}

// TestDefaultWireOptionsBitIdentical pins the plane's reproducibility
// contract at the harness level: the default cell options reproduce a
// deterministic sequential workload exactly, counter for counter.
func TestDefaultWireOptionsBitIdentical(t *testing.T) {
	a, enda := releaseBurstWorkload(t)
	b, endb := releaseBurstWorkload(t)
	if enda != endb {
		t.Errorf("sequential workload not reproducible: end %v vs %v", enda, endb)
	}
	for _, e := range []stats.Event{
		stats.EvMessagesSent, stats.EvBytesSent, stats.EvBytesFetched,
		stats.EvWireOps, stats.EvDiffsSent, stats.EvPageFaults,
	} {
		if va, vb := a.Load(e), b.Load(e); va != vb {
			t.Errorf("counter %v differs across identical runs: %d vs %d", e, va, vb)
		}
	}
}

// TestFig5ContendedSyncRaceSmoke is the `make race` cell for the
// -contended-sync mode: one fig5 column with sync traffic holding NIC
// occupancy, under the race detector, on both backends.
func TestFig5ContendedSyncRaceSmoke(t *testing.T) {
	for _, c := range RunFig5([]string{"FFT"}, []int{4},
		CellOptions{Scale: ScaleTest, Wire: wire.Options{ContendedSync: true}}, 2) {
		if c.Err != nil {
			t.Errorf("%s: %v", c.Label(), c.Err)
		}
		if c.Res.Parallel <= 0 {
			t.Errorf("%s: implausible parallel time %v", c.Label(), c.Res.Parallel)
		}
	}
}
