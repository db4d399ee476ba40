package san

import (
	"sync"
	"testing"

	"cables/internal/sim"
	"cables/internal/stats"
)

func newFabric(nodes int) (*Fabric, *stats.Counters) {
	ctr := stats.NewCounters(4)
	return New(nodes, sim.DefaultCosts(), ctr), ctr
}

func TestSendLatencyMatchesCostTable(t *testing.T) {
	f, ctr := newFabric(2)
	task := sim.NewTask(1, 0, f.Costs())
	d := f.Send(task, 0, 1, 8)
	if want := f.Costs().SendTime(8); d != want {
		t.Errorf("idle send: got %v want %v", d, want)
	}
	if ctr.Load(stats.EvMessagesSent) != 1 || ctr.Load(stats.EvBytesSent) != 8 {
		t.Errorf("counters: %v", ctr)
	}
}

func TestFetchLatencyMatchesCostTable(t *testing.T) {
	f, ctr := newFabric(2)
	task := sim.NewTask(1, 0, f.Costs())
	d := f.Fetch(task, 0, 1, 4096)
	if want := f.Costs().FetchTime(4096); d != want {
		t.Errorf("idle fetch: got %v want %v", d, want)
	}
	if ctr.Load(stats.EvFetches) != 1 || ctr.Load(stats.EvBytesFetched) != 4096 {
		t.Errorf("counters: %v", ctr)
	}
}

// TestNICOccupancySerializes: back-to-back sends from one node queue behind
// each other at link bandwidth.
func TestNICOccupancySerializes(t *testing.T) {
	f, _ := newFabric(2)
	task := sim.NewTask(1, 0, f.Costs())
	const size = 64 << 10
	d1 := f.Send(task, 0, 1, size)
	d2 := f.Send(task, 0, 1, size) // task clock unchanged: queues behind d1
	occ := f.Costs().Occupancy(size)
	if d2 < d1+occ-sim.Microsecond {
		t.Errorf("second send did not queue: d1=%v d2=%v occ=%v", d1, d2, occ)
	}
}

// TestDistinctPortsDoNotContend: senders on different nodes are independent.
func TestDistinctPortsDoNotContend(t *testing.T) {
	f, _ := newFabric(3)
	t0 := sim.NewTask(1, 0, f.Costs())
	t1 := sim.NewTask(2, 1, f.Costs())
	const size = 64 << 10
	d0 := f.Send(t0, 0, 2, size)
	d1 := f.Send(t1, 1, 2, size)
	if d0 != d1 {
		t.Errorf("independent ports disagree: %v vs %v", d0, d1)
	}
}

// TestConcurrentReserveIsRaceFreeAndConserving: total occupancy booked under
// contention equals the sum of individual occupancies.  The port's freeAt
// is shared by every sender on the node, so bare goroutines race on it here.
func TestConcurrentReserveIsRaceFreeAndConserving(t *testing.T) {
	f, _ := newFabric(2)
	const senders, msgs = 8, 50
	occ := f.Costs().Occupancy(4096)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				f.Reserve(0, 0, occ)
			}
		}()
	}
	wg.Wait()
	if free, want := sim.Time(f.ports[0].freeAt.Load()), occ*senders*msgs; free != want {
		t.Errorf("booked occupancy: got %v want %v", free, want)
	}
}

// TestSendCountsEveryMessage: each send books its occupancy and is counted
// once, in messages and in bytes.
func TestSendCountsEveryMessage(t *testing.T) {
	f, ctr := newFabric(2)
	const msgs, size = 50, 4096
	task := sim.NewTask(1, 0, f.Costs())
	for i := 0; i < msgs; i++ {
		f.Send(task, 0, 1, size)
	}
	if free, want := sim.Time(f.ports[0].freeAt.Load()), f.Costs().Occupancy(size)*msgs; free != want {
		t.Errorf("booked occupancy: got %v want %v", free, want)
	}
	if got := ctr.Load(stats.EvMessagesSent); got != msgs {
		t.Errorf("messages counted: got %d want %d", got, msgs)
	}
	if got := ctr.Load(stats.EvBytesSent); got != msgs*size {
		t.Errorf("bytes counted: got %d want %d", got, msgs*size)
	}
}

func TestNodeRangeChecks(t *testing.T) {
	f, _ := newFabric(2)
	task := sim.NewTask(1, 0, f.Costs())
	for _, fn := range []func(){
		func() { f.Send(task, 0, 5, 8) },
		func() { f.Fetch(task, -1, 0, 8) },
		func() { New(0, sim.DefaultCosts(), stats.NewCounters(4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
