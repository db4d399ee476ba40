package san_test

import (
	"testing"

	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
	"cables/internal/wire"
)

// newPlane builds a wire plane over a fresh fabric: the plane prices every
// transfer and books its sender's port on the fabric.
func newPlane(nodes int) (*san.Fabric, *wire.Plane, *stats.Counters) {
	ctr := stats.NewCounters(4)
	f := san.New(nodes, sim.DefaultCosts(), ctr)
	return f, wire.New(f, vmmc.NewSystem(f, vmmc.DefaultLimits()), wire.Options{}), ctr
}

// send issues a size-byte remote write from a fresh task on node src at
// virtual time 0 and returns the duration it was charged.
func send(p *wire.Plane, src, dst, size int) sim.Time {
	return p.Do(sim.NewTask(1, src, sim.DefaultCosts()), wire.Op{Kind: wire.KindWrite, Dst: dst, Size: size})
}

func TestSendLatencyMatchesCostTable(t *testing.T) {
	f, p, ctr := newPlane(2)
	d := send(p, 0, 1, 8)
	if want := f.Costs().SendTime(8); d != want {
		t.Errorf("idle send: got %v want %v", d, want)
	}
	if ctr.Load(stats.EvMessagesSent) != 1 || ctr.Load(stats.EvBytesSent) != 8 {
		t.Errorf("counters: %v", ctr)
	}
}

func TestFetchLatencyMatchesCostTable(t *testing.T) {
	f, p, ctr := newPlane(2)
	task := sim.NewTask(1, 0, f.Costs())
	d := p.Do(task, wire.Op{Kind: wire.KindFetch, Dst: 1, Size: 4096})
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
	f, p, _ := newPlane(2)
	const size = 64 << 10
	d1 := send(p, 0, 1, size)
	d2 := send(p, 0, 1, size) // issued at the same instant: queues behind d1
	occ := f.Costs().Occupancy(size)
	if d2 < d1+occ-sim.Microsecond {
		t.Errorf("second send did not queue: d1=%v d2=%v occ=%v", d1, d2, occ)
	}
}

// TestDistinctPortsDoNotContend: senders on different nodes are independent.
func TestDistinctPortsDoNotContend(t *testing.T) {
	_, p, _ := newPlane(3)
	const size = 64 << 10
	d0 := send(p, 0, 2, size)
	d1 := send(p, 1, 2, size)
	if d0 != d1 {
		t.Errorf("independent ports disagree: %v vs %v", d0, d1)
	}
}

// TestSendCountsEveryMessage: each send books its occupancy and is counted
// once, in messages and in bytes.
func TestSendCountsEveryMessage(t *testing.T) {
	f, p, ctr := newPlane(2)
	const msgs, size = 50, 4096
	for i := 0; i < msgs; i++ {
		send(p, 0, 1, size)
	}
	// A zero-length booking at time 0 starts when the port frees.
	if free, want := f.Reserve(0, 0, 0), f.Costs().Occupancy(size)*msgs; free != want {
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
	f, p, _ := newPlane(2)
	for _, fn := range []func(){
		func() { send(p, 0, 5, 8) },
		func() {
			p.Do(sim.NewTask(1, -1, f.Costs()), wire.Op{Kind: wire.KindFetch, Dst: 0, Size: 8})
		},
		func() { san.New(0, sim.DefaultCosts(), stats.NewCounters(4)) },
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
