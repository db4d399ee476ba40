package wire

import (
	"errors"
	"testing"

	"cables/internal/fault"
	"cables/internal/profile"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
)

// newPlane builds a 4-node plane (and its fabric/VMMC substrate) for tests.
func newPlane(opts Options) (*Plane, *stats.Counters) {
	ctr := stats.NewCounters(4)
	fab := san.New(4, sim.DefaultCosts(), ctr)
	vm := vmmc.NewSystem(fab, vmmc.DefaultLimits())
	return New(fab, vm, opts), ctr
}

func newTask(node int) *sim.Task { return sim.NewTask(0, node, sim.DefaultCosts()) }

// TestFlatSchedule pins the default control-plane cost schedule to the
// calibrated Table-4 communication shares that `cablesim table4` reports.
func TestFlatSchedule(t *testing.T) {
	c := sim.DefaultCosts()
	cases := []struct {
		kind Kind
		want sim.Time
	}{
		{KindLockFirst, c.MutexLocalFirstComm},
		{KindLockRemote, c.MutexRemoteComm},
		{KindLockRemoteFirst, c.MutexRemoteComm + c.MutexRemoteFirstAdd},
		{KindLockGrant, c.SendTime(16)},
		{KindBarrierArrive, c.BarrierNativeComm},
		{KindCondWait, c.CondWaitComm},
		{KindCondSignal, c.CondSignalComm},
		{KindCondBcast, c.CondBcastComm},
		{KindAdminReq, c.AdminReqComm},
		{KindAttach, c.AttachComm},
		{KindThreadCreate, c.ThreadCreateComm},
		{KindSpawn, c.SendTime(64)},
		{KindSegMigrate, c.SegMigrateComm},
		{KindSegDetect, c.SegDetectFirstComm},
		{KindRehome, c.SendTime(64)},
	}
	for _, tc := range cases {
		p, _ := newPlane(Options{})
		task := newTask(0)
		got := p.Do(task, Op{Kind: tc.kind, Dst: 1})
		if got != tc.want {
			t.Errorf("%v: charged %v, want %v", tc.kind, got, tc.want)
		}
		if brk := task.Snapshot(); brk[sim.CatComm] != tc.want {
			t.Errorf("%v: CatComm %v, want %v", tc.kind, brk[sim.CatComm], tc.want)
		}
		if task.Now() != tc.want {
			t.Errorf("%v: clock %v, want %v", tc.kind, task.Now(), tc.want)
		}
	}
}

// TestNominalSizes checks the default on-wire sizes: descriptor-carrying
// ops model 64 bytes, plain control messages 16, and an explicit Size wins.
func TestNominalSizes(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		size int
		want int64
	}{
		{KindAdminReq, 0, 16},
		{KindBarrierArrive, 0, 16},
		{KindAttach, 0, 64},
		{KindThreadCreate, 0, 64},
		{KindSpawn, 0, 64},
		{KindSegMigrate, 0, 64},
		{KindRehome, 0, 64},
		{KindAdminReq, 128, 128},
	} {
		p, ctr := newPlane(Options{})
		p.Do(newTask(0), Op{Kind: tc.kind, Dst: 1, Size: tc.size})
		if got := ctr.Load(stats.EvBytesSent); got != tc.want {
			t.Errorf("%v size %d: bytesSent %d, want %d", tc.kind, tc.size, got, tc.want)
		}
		if got := ctr.Load(stats.EvMessagesSent); got != 1 {
			t.Errorf("%v: messagesSent %d, want 1", tc.kind, got)
		}
		if got := ctr.Load(stats.EvWireOps); got != 1 {
			t.Errorf("%v: wireOps %d, want 1", tc.kind, got)
		}
	}
}

// TestDelegatedOps is the byte-accounting check at the choke point: for
// every data-plane kind a remote op adds exactly its Size to one of
// bytesSent/bytesFetched, and a node-local op adds nothing.
func TestDelegatedOps(t *testing.T) {
	const size = 4096
	for _, tc := range []struct {
		kind Kind
		ev   stats.Event // the counter a remote op adds Size to
	}{
		{KindFetch, stats.EvBytesFetched},
		{KindWrite, stats.EvBytesSent},
		{KindStream, stats.EvBytesSent},
		{KindStreamFetch, stats.EvBytesFetched},
		{KindNotify, stats.EvBytesSent},
		{KindMigrate, stats.EvBytesFetched},
		{KindCommMerge, stats.EvBytesSent},
	} {
		if !tc.kind.dataPlane() {
			t.Fatalf("%v is not a data-plane kind", tc.kind)
		}
		p, ctr := newPlane(Options{})
		p.Do(newTask(0), Op{Kind: tc.kind, Dst: 1, Size: size})
		sent, fetched := ctr.Load(stats.EvBytesSent), ctr.Load(stats.EvBytesFetched)
		if got := ctr.Load(tc.ev); got != size || sent+fetched != size {
			t.Errorf("%v remote: %v=%d (bytesSent %d, bytesFetched %d), want exactly %d on %v",
				tc.kind, tc.ev, got, sent, fetched, size, tc.ev)
		}

		p, ctr = newPlane(Options{})
		p.Do(newTask(1), Op{Kind: tc.kind, Dst: 1, Size: size})
		if sent, fetched := ctr.Load(stats.EvBytesSent), ctr.Load(stats.EvBytesFetched); sent+fetched != 0 {
			t.Errorf("%v local leaked onto the wire: bytesSent %d, bytesFetched %d", tc.kind, sent, fetched)
		}
	}
}

// TestMigrateCountsAndFetches checks KindMigrate: one pageMigrations count
// plus the page fetch from the old home, whose Size lands in bytesFetched.
func TestMigrateCountsAndFetches(t *testing.T) {
	p, ctr := newPlane(Options{})
	p.Do(newTask(0), Op{Kind: KindMigrate, Dst: 2, Size: 4096, Arg: 77})
	if got := ctr.Load(stats.EvPageMigrations); got != 1 {
		t.Errorf("pageMigrations %d, want 1", got)
	}
	if got := ctr.Load(stats.EvBytesFetched); got != 4096 {
		t.Errorf("bytesFetched %d, want 4096", got)
	}
}

// TestDeliverAt checks the grant handoff path: deterministic delivery
// instant, message accounting, and no dependence on a running task.
func TestDeliverAt(t *testing.T) {
	p, ctr := newPlane(Options{})
	c := sim.DefaultCosts()
	now := 5 * sim.Millisecond
	at := p.DeliverAt(now, Op{Kind: KindLockGrant, Src: 1, Dst: 2, Arg: 9})
	if want := now + c.SendTime(16); at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
	if got := ctr.Load(stats.EvMessagesSent); got != 1 {
		t.Errorf("messagesSent %d, want 1", got)
	}
	// Determinism: same instant, same op, same answer (default mode has no
	// queueing state).
	if again := p.DeliverAt(now, Op{Kind: KindLockGrant, Src: 1, Dst: 2, Arg: 9}); again != at {
		t.Errorf("DeliverAt not deterministic: %v then %v", at, again)
	}
}

// TestContendedSyncQueues checks the opt-in mode: back-to-back control ops
// from one node queue for the NIC, so the second delivery is later — and
// that with the mode off the plane has no such state.
func TestContendedSyncQueues(t *testing.T) {
	p, _ := newPlane(Options{ContendedSync: true})
	now := sim.Millisecond
	first := p.DeliverAt(now, Op{Kind: KindLockGrant, Src: 0, Dst: 1, Size: 8 << 10})
	second := p.DeliverAt(now, Op{Kind: KindLockGrant, Src: 0, Dst: 2, Size: 8 << 10})
	if second <= first {
		t.Errorf("no NIC queueing under -contended-sync: first %v, second %v", first, second)
	}

	off, _ := newPlane(Options{})
	a := off.DeliverAt(now, Op{Kind: KindLockGrant, Src: 0, Dst: 1, Size: 8 << 10})
	b := off.DeliverAt(now, Op{Kind: KindLockGrant, Src: 0, Dst: 2, Size: 8 << 10})
	if a != b {
		t.Errorf("default mode queued sync traffic: %v then %v", a, b)
	}
}

// TestContendedSyncFaults checks the injector is consulted for control ops
// only under -contended-sync: a certain-failure send plan inflates the
// charged duration and counts retries in contended mode — for a task's op
// and for a lock grant handed off through DeliverAt alike — and is ignored
// in default mode.
func TestContendedSyncFaults(t *testing.T) {
	plan := fault.MustParsePlan("send:p=1")

	p, ctr := newPlane(Options{ContendedSync: true})
	p.SetFault(fault.New(plan, 42))
	base := sim.DefaultCosts().MutexRemoteComm
	d := p.Do(newTask(0), Op{Kind: KindLockRemote, Dst: 1})
	if d <= base {
		t.Errorf("certain send failure did not inflate the op: charged %v, base %v", d, base)
	}
	if got := ctr.Load(stats.EvSendRetries); got == 0 {
		t.Error("no send retries counted under -contended-sync")
	}

	// A grant pays its send once per failed attempt plus the backoff, like
	// any send (TestSendFaultRetryCost).
	p, ctr = newPlane(Options{ContendedSync: true})
	p.SetFault(fault.New(plan, 42))
	send := sim.DefaultCosts().SendTime(16)
	want := sim.Millisecond + send
	for a := 0; a < fault.MaxSendRetries; a++ {
		want += send + fault.Backoff(a)
	}
	if at := p.DeliverAt(sim.Millisecond, Op{Kind: KindLockGrant, Src: 0, Dst: 1}); at != want {
		t.Errorf("grant under send:p=1 delivered at %v, want %v", at, want)
	}
	if got := ctr.Load(stats.EvSendRetries); got != fault.MaxSendRetries {
		t.Errorf("grant counted %d send retries, want %d", got, fault.MaxSendRetries)
	}

	off, offCtr := newPlane(Options{})
	off.SetFault(fault.New(plan, 42))
	if d := off.Do(newTask(0), Op{Kind: KindLockRemote, Dst: 1}); d != base {
		t.Errorf("default mode consulted the injector for a control op: charged %v, want %v", d, base)
	}
	if at := off.DeliverAt(sim.Millisecond, Op{Kind: KindLockGrant, Src: 0, Dst: 1}); at != sim.Millisecond+send {
		t.Errorf("default mode grant delivered at %v, want %v", at, sim.Millisecond+send)
	}
	if got := offCtr.Load(stats.EvSendRetries); got != 0 {
		t.Errorf("default mode counted %d send retries for a control op", got)
	}
}

// TestSendFaultRetryCost pins the transient-failure rule on the data path
// exactly: under a certain-failure send plan, a remote wire.write and a
// wire.stream each pay their fault-free cost plus, for every one of the
// fault.MaxSendRetries failed attempts a, one full attempt plus
// fault.Backoff(a), and count one send retry per attempt.
func TestSendFaultRetryCost(t *testing.T) {
	const size = 4096
	c := sim.DefaultCosts()
	for _, tc := range []struct {
		kind Kind
		per  sim.Time // one attempt: the fault-free cost
	}{
		{KindWrite, c.SendTime(size)},
		{KindStream, c.SendBase + c.Occupancy(size)},
	} {
		want := tc.per
		for a := 0; a < fault.MaxSendRetries; a++ {
			want += tc.per + fault.Backoff(a)
		}
		p, ctr := newPlane(Options{})
		p.SetFault(fault.New(fault.MustParsePlan("send:p=1"), 42))
		task := newTask(0)
		p.Do(task, Op{Kind: tc.kind, Dst: 1, Size: size})
		if got := task.Now(); got != want {
			t.Errorf("%v under send:p=1 charged %v, want %v", tc.kind, got, want)
		}
		if got := ctr.Load(stats.EvSendRetries); got != fault.MaxSendRetries {
			t.Errorf("%v counted %d send retries, want %d", tc.kind, got, fault.MaxSendRetries)
		}
	}
}

// TestSetFaultWiresWholeStack checks the single wiring point: one SetFault
// call must arm the data path's transient faults and the NICs'
// registration-memory pressure.
func TestSetFaultWiresWholeStack(t *testing.T) {
	p, ctr := newPlane(Options{})
	p.SetFault(fault.New(fault.MustParsePlan("fetch:p=1;nicmem:node=1,reserve=255M"), 7))
	nic := p.vm.NIC(1)
	id, err := nic.Register("home", 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.GrowAt(id, 2<<20, sim.Millisecond); !errors.Is(err, vmmc.ErrRegisteredLimit) {
		t.Errorf("NIC registration pressure not armed through SetFault: %v", err)
	}
	p.Do(newTask(0), Op{Kind: KindFetch, Dst: 1, Size: 4096})
	if got := ctr.Load(stats.EvFetchRetries); got == 0 {
		t.Error("fetch faults not armed through SetFault; per-layer wiring is back")
	}
	if ctr.Load(stats.EvFaultsInjected) == 0 {
		t.Error("injector observed no faults")
	}
}

// dataOpEvents are the traffic and retry counters TestDataOpCosts pins.
var dataOpEvents = [...]stats.Event{
	stats.EvMessagesSent, stats.EvBytesSent, stats.EvFetches, stats.EvBytesFetched,
	stats.EvNotifications, stats.EvPageMigrations, stats.EvWireOps,
	stats.EvSendRetries, stats.EvFetchRetries, stats.EvNotifyLost, stats.EvFaultsInjected,
}

// TestDataOpCosts pins the price of every data-plane kind, node-local
// (Dst 0) and remote (Dst 1), fault-free and under certain failure of its
// fault class: the task clock, its CatComm/CatLocal split, the instant the
// sender's NIC port frees, and every counter in dataOpEvents.  The port is
// busy for the first 10us, so a port-booking transfer queues behind it.
func TestDataOpCosts(t *testing.T) {
	type result struct {
		clock, comm, local, portFree sim.Time
		ctr                          [len(dataOpEvents)]int64
	}
	for _, tc := range []struct {
		kind Kind
		dst  int
		plan string
		want result
	}{
		{KindFetch, 0, "", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindFetch, 0, "fetch:p=1", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindFetch, 1, "", result{90862, 90862, 0, 42768, [...]int64{0, 0, 1, 4096, 0, 0, 1, 0, 0, 0, 0}}},
		{KindFetch, 1, "fetch:p=1", result{3912758, 3912758, 0, 42768, [...]int64{0, 0, 1, 4096, 0, 0, 1, 0, 8, 0, 8}}},
		{KindWrite, 0, "", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindWrite, 0, "send:p=1", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindWrite, 1, "", result{61946, 61946, 0, 42768, [...]int64{1, 4096, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindWrite, 1, "send:p=1", result{3652514, 3652514, 0, 42768, [...]int64{1, 4096, 0, 0, 0, 0, 1, 8, 0, 0, 8}}},
		{KindStream, 0, "", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindStream, 0, "send:p=1", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindStream, 1, "", result{50478, 50478, 0, 42768, [...]int64{1, 4096, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindStream, 1, "send:p=1", result{3549302, 3549302, 0, 42768, [...]int64{1, 4096, 0, 0, 0, 0, 1, 8, 0, 0, 8}}},
		{KindStreamFetch, 0, "", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindStreamFetch, 0, "fetch:p=1", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindStreamFetch, 1, "", result{64648, 64648, 0, 42768, [...]int64{0, 0, 1, 4096, 0, 0, 1, 0, 0, 0, 0}}},
		{KindStreamFetch, 1, "fetch:p=1", result{3676832, 3676832, 0, 42768, [...]int64{0, 0, 1, 4096, 0, 0, 1, 0, 8, 0, 8}}},
		{KindNotify, 0, "", result{6646, 0, 6646, 10000, [...]int64{0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0}}},
		{KindNotify, 0, "notify:p=1", result{6646, 0, 6646, 10000, [...]int64{0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0}}},
		{KindNotify, 1, "", result{72146, 72146, 0, 42768, [...]int64{1, 4096, 0, 0, 1, 0, 1, 0, 0, 0, 0}}},
		{KindNotify, 1, "notify:p=1", result{3744314, 3744314, 0, 42768, [...]int64{1, 4096, 0, 0, 1, 0, 1, 0, 0, 8, 8}}},
		{KindMigrate, 0, "", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0}}},
		{KindMigrate, 0, "fetch:p=1", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0}}},
		{KindMigrate, 1, "", result{90862, 90862, 0, 42768, [...]int64{0, 0, 1, 4096, 0, 1, 1, 0, 0, 0, 0}}},
		{KindMigrate, 1, "fetch:p=1", result{3912758, 3912758, 0, 42768, [...]int64{0, 0, 1, 4096, 0, 1, 1, 0, 8, 0, 8}}},
		{KindCommMerge, 0, "", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindCommMerge, 0, "send:p=1", result{4096, 0, 4096, 10000, [...]int64{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindCommMerge, 1, "", result{61946, 61946, 0, 42768, [...]int64{1, 4096, 0, 0, 0, 0, 1, 0, 0, 0, 0}}},
		{KindCommMerge, 1, "send:p=1", result{3652514, 3652514, 0, 42768, [...]int64{1, 4096, 0, 0, 0, 0, 1, 8, 0, 0, 8}}},
	} {
		p, ctr := newPlane(Options{})
		if tc.plan != "" {
			p.SetFault(fault.New(fault.MustParsePlan(tc.plan), 42))
		}
		p.fab.Reserve(0, 0, 10*sim.Microsecond)
		task := newTask(0)
		d := p.Do(task, Op{Kind: tc.kind, Dst: tc.dst, Size: 4096})
		brk := task.Snapshot()
		got := result{clock: task.Now(), comm: brk[sim.CatComm], local: brk[sim.CatLocal], portFree: p.fab.Reserve(0, 0, 0)}
		for i, ev := range dataOpEvents {
			got.ctr[i] = ctr.Load(ev)
		}
		if got != tc.want {
			t.Errorf("%v dst=%d plan=%q:\n got %+v\nwant %+v", tc.kind, tc.dst, tc.plan, got, tc.want)
		}
		if d != got.clock {
			t.Errorf("%v dst=%d plan=%q: Do returned %v, charged %v", tc.kind, tc.dst, tc.plan, d, got.clock)
		}
	}
}

// TestDoAllocFree: a control op through Plane.Do — dispatch, flat-cost
// lookup, charge and counters — must not allocate.
func TestDoAllocFree(t *testing.T) {
	p, _ := newPlane(Options{})
	task := newTask(0)
	if n := testing.AllocsPerRun(1000, func() {
		p.Do(task, Op{Kind: KindAdminReq, Dst: 1})
	}); n != 0 {
		t.Errorf("Plane.Do allocates %.1f times per control op, want 0", n)
	}
}

// TestKindNames pins the kind names the profiler renders as SpanWire
// timeline names ("wire.<kind>"), which the observability docs promise.
func TestKindNames(t *testing.T) {
	if got := KindFetch.String(); got != "fetch" {
		t.Errorf("KindFetch name %q", got)
	}
	if got := KindBarrierArrive.String(); got != "barrier" {
		t.Errorf("KindBarrierArrive name %q", got)
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
		if got := profile.WireArgName(uint64(k)); got != k.String() {
			t.Errorf("profile.WireArgName(%d) = %q, want %q", int(k), got, k.String())
		}
	}
}
