package genima_test

import (
	"testing"

	"cables/internal/genima"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

// pingPong runs a deterministic 2-node lock ping-pong: two workers strictly
// alternate (handing the turn over by Park/Unpark) acquiring a lock and
// bumping counters on a few shared pages, producing two intervals of history
// per round.  It returns the headline coherence counters, the retained log
// length, and the final shared values — everything the compacted and
// uncompacted protocols must agree on.
func pingPong(t *testing.T, disableCompaction bool, rounds int) (invals, diffs, diffBytes, notices int64, logLen int, finals [4]int64) {
	t.Helper()
	rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 1, ArenaBytes: 16 << 20})
	if disableCompaction {
		genima.KeepFullLog(rt.Protocol())
	}
	main := rt.Main()
	acc := rt.Acc()
	// Four counters on four distinct pages, all homed on node 0, so the
	// node-1 worker twins and diffs every round.
	addr, err := rt.Malloc(main, "pingpong", 4<<12)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	slot := func(i int) memsys.Addr { return addr + memsys.Addr(i<<12) }
	for i := 0; i < 4; i++ {
		acc.WriteI64(main, slot(i), 0)
	}
	rt.Protocol().Flush(main)

	// The workers pass the turn by parking: each parks until the other
	// unparks it, and the second to start wakes main to hand out the first
	// turn.
	var workers [2]*sim.Task
	started := 0 // the workers run one at a time in the cell's slot
	worker := func(w int) func(th *sim.Task) {
		return func(th *sim.Task) {
			workers[w] = th
			if started++; started == 2 {
				main.Unpark(th.Now())
			}
			for i := 0; i < rounds; i++ {
				th.Park()
				rt.Lock(th, 1)
				for s := 0; s < 4; s++ {
					v := acc.ReadI64(th, slot(s))
					acc.WriteI64(th, slot(s), v+1)
				}
				rt.Unlock(th, 1)
				workers[1-w].Unpark(th.Now())
			}
		}
	}
	ids := []int{rt.Spawn(main, worker(0)), rt.Spawn(main, worker(1))}
	main.Park()
	workers[0].Unpark(main.Now())
	for _, id := range ids {
		rt.Join(main, id)
	}

	rt.Lock(main, 1)
	for i := 0; i < 4; i++ {
		finals[i] = acc.ReadI64(main, slot(i))
	}
	rt.Unlock(main, 1)

	ctr := rt.Cluster().Ctr
	return ctr.Load(stats.EvInvalidations), ctr.Load(stats.EvDiffsSent), ctr.Load(stats.EvDiffBytes),
		ctr.Load(stats.EvWriteNotices), rt.Protocol().LogLen(), finals
}

// TestLogCompactionEquivalentAndBounded is the compaction regression test:
// a long lock ping-pong must leave len(p.log) bounded (instead of growing
// with total history), while invalidation, diff, and write-notice counts —
// and of course the shared data — match the uncompacted implementation
// exactly.
func TestLogCompactionEquivalentAndBounded(t *testing.T) {
	const rounds = 500 // 2*rounds intervals: well past the compaction threshold

	uInv, uDiffs, uBytes, uNot, uLog, uFin := pingPong(t, true, rounds)
	cInv, cDiffs, cBytes, cNot, cLog, cFin := pingPong(t, false, rounds)

	if uFin != cFin {
		t.Fatalf("final shared values differ: uncompacted %v, compacted %v", uFin, cFin)
	}
	for i, v := range cFin {
		if want := int64(2 * rounds); v != want {
			t.Errorf("slot %d: final value %d, want %d", i, v, want)
		}
	}
	if uInv != cInv || uDiffs != cDiffs || uBytes != cBytes || uNot != cNot {
		t.Errorf("counter mismatch (uncompacted vs compacted): invalidations %d/%d, diffs %d/%d, diffBytes %d/%d, writeNotices %d/%d",
			uInv, cInv, uDiffs, cDiffs, uBytes, cBytes, uNot, cNot)
	}

	// The uncompacted log retains all history; the compacted one must stay
	// near the threshold regardless of rounds.
	if uLog < 2*rounds {
		t.Errorf("uncompacted log retained %d intervals, expected at least %d — workload no longer exercises compaction", uLog, 2*rounds)
	}
	if cLog > 300 {
		t.Errorf("compacted log retained %d intervals, want bounded (<= 300)", cLog)
	}
}
