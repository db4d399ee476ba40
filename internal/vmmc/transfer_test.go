package vmmc_test

import (
	"testing"

	"cables/internal/fault"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
	"cables/internal/wire"
)

// newPlane builds the 4-node communication stack: VMMC's NICs under the
// wire plane that prices their remote writes, fetches and notifications.
func newPlane() (*wire.Plane, *stats.Counters) {
	ctr := stats.NewCounters(4)
	fab := san.New(4, sim.DefaultCosts(), ctr)
	return wire.New(fab, vmmc.NewSystem(fab, vmmc.DefaultLimits()), wire.Options{}), ctr
}

// do issues a data op of kind from task to node dst.
func do(p *wire.Plane, task *sim.Task, kind wire.Kind, dst, size int) {
	p.Do(task, wire.Op{Kind: kind, Dst: dst, Size: size})
}

func TestTransfersChargeCommOnlyWhenRemote(t *testing.T) {
	p, _ := newPlane()
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	do(p, task, wire.KindWrite, 0, 4096) // local: cheap memcpy
	localCost := task.Now()
	if localCost >= 10*sim.Microsecond {
		t.Errorf("local write too expensive: %v", localCost)
	}
	do(p, task, wire.KindWrite, 1, 4096)
	if task.Snapshot()[sim.CatComm] == 0 {
		t.Error("remote write charged no comm")
	}
	do(p, task, wire.KindFetch, 2, 64)
	do(p, task, wire.KindNotify, 3, 16)
	b := task.Snapshot()
	if b[sim.CatComm] < 50*sim.Microsecond {
		t.Errorf("comm total too small: %v", b[sim.CatComm])
	}
}

func TestStreamWriteHitsBandwidth(t *testing.T) {
	p, _ := newPlane()
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	const size = 32 << 20
	do(p, task, wire.KindStream, 1, size)
	mbps := float64(size) / task.Now().Seconds() / 1e6
	if mbps < 120 || mbps > 130 {
		t.Errorf("stream bandwidth: %.1f MB/s, want ~125", mbps)
	}
}

// TestStreamFetchHitsBandwidth mirrors the write-side pin: the pipelined
// fetch path also converges to the NIC's ~125 MB/s.
func TestStreamFetchHitsBandwidth(t *testing.T) {
	p, _ := newPlane()
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	const size = 32 << 20
	do(p, task, wire.KindStreamFetch, 1, size)
	mbps := float64(size) / task.Now().Seconds() / 1e6
	if mbps < 120 || mbps > 130 {
		t.Errorf("stream fetch bandwidth: %.1f MB/s, want ~125", mbps)
	}
}

// TestStreamFaultPenalty: transient send/fetch faults inflate a stream
// transfer (each failed attempt repeats the full transfer plus backoff)
// without changing what the counters attribute — one message, size bytes.
func TestStreamFaultPenalty(t *testing.T) {
	const size = 1 << 20
	cases := []struct {
		name string
		plan string
		kind wire.Kind
		msgs stats.Event
		byts stats.Event
		rtry stats.Event
	}{
		{"write", "send:p=1", wire.KindStream, stats.EvMessagesSent, stats.EvBytesSent, stats.EvSendRetries},
		{"fetch", "fetch:p=1", wire.KindStreamFetch, stats.EvFetches, stats.EvBytesFetched, stats.EvFetchRetries},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean, _ := newPlane()
			cleanTask := sim.NewTask(1, 0, sim.DefaultCosts())
			do(clean, cleanTask, tc.kind, 1, size)

			p, ctr := newPlane()
			p.SetFault(fault.New(fault.MustParsePlan(tc.plan), 3))
			task := sim.NewTask(1, 0, sim.DefaultCosts())
			do(p, task, tc.kind, 1, size)

			if task.Now() <= cleanTask.Now() {
				t.Errorf("certain faults did not slow the stream: %v vs clean %v",
					task.Now(), cleanTask.Now())
			}
			if got := ctr.Load(tc.msgs); got != 1 {
				t.Errorf("faulted stream attributed %d transfers, want 1", got)
			}
			if got := ctr.Load(tc.byts); got != size {
				t.Errorf("faulted stream attributed %d bytes, want %d", got, size)
			}
			if got := ctr.Load(tc.rtry); got == 0 {
				t.Error("no retries counted under a certain-failure plan")
			}
			if brk := task.Snapshot(); brk[sim.CatComm] != task.Now() {
				t.Errorf("penalty escaped CatComm: breakdown %v, clock %v",
					brk[sim.CatComm], task.Now())
			}
		})
	}
}

// TestStreamLocalBypassesWire: a same-node stream is a memory copy — no
// messages, no bytes on the wire, CatLocal only.
func TestStreamLocalBypassesWire(t *testing.T) {
	p, ctr := newPlane()
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	do(p, task, wire.KindStream, 0, 1<<20)
	do(p, task, wire.KindStreamFetch, 0, 1<<20)
	if ctr.Load(stats.EvMessagesSent) != 0 || ctr.Load(stats.EvBytesFetched) != 0 {
		t.Error("local stream leaked onto the wire")
	}
	if brk := task.Snapshot(); brk[sim.CatComm] != 0 {
		t.Errorf("local stream charged CatComm %v", brk[sim.CatComm])
	}
}
