package wire

import (
	"testing"

	"cables/internal/fault"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/trace"
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
// calibrated Table-4 communication shares: the plane must charge exactly
// what the call sites charged before it existed (the bit-identity
// contract behind `cablesim table4`).
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
		{KindLockProbe, c.SendTime(16)},
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

// TestDelegatedOps checks that data-plane kinds route through VMMC: fetches
// bump the fetch counters, writes the send counters, and a node-local op
// crosses no wire (no counters, no wire trace event).
func TestDelegatedOps(t *testing.T) {
	p, ctr := newPlane(Options{})
	ring := trace.NewRing(64)
	p.BindTrace(ring)

	p.Do(newTask(0), Op{Kind: KindFetch, Dst: 1, Size: 4096})
	if got := ctr.Load(stats.EvBytesFetched); got != 4096 {
		t.Errorf("fetch: bytesFetched %d, want 4096", got)
	}
	p.Do(newTask(0), Op{Kind: KindWrite, Dst: 1, Size: 256})
	if got := ctr.Load(stats.EvBytesSent); got != 256 {
		t.Errorf("write: bytesSent %d, want 256", got)
	}

	// Node-local delegated op: no traffic, no wire event.
	before := len(ring.Events())
	p.Do(newTask(1), Op{Kind: KindWrite, Dst: 1, Size: 512})
	if got := ctr.Load(stats.EvBytesSent); got != 256 {
		t.Errorf("local write leaked onto the wire: bytesSent %d, want 256", got)
	}
	if got := len(ring.Events()); got != before {
		t.Errorf("local write emitted %d wire events", got-before)
	}
}

// TestMigrateEmitsTrace checks satellite semantics of KindMigrate: the
// fetch from the old home plus a `migrate` protocol event and the
// pageMigrations counter.
func TestMigrateEmitsTrace(t *testing.T) {
	p, ctr := newPlane(Options{})
	ring := trace.NewRing(64)
	p.BindTrace(ring)
	p.Do(newTask(0), Op{Kind: KindMigrate, Dst: 2, Size: 4096, Arg: 77})
	if got := ctr.Load(stats.EvPageMigrations); got != 1 {
		t.Errorf("pageMigrations %d, want 1", got)
	}
	counts := ring.Counts()
	if counts[trace.KindMigrate] != 1 {
		t.Errorf("migrate trace events %d, want 1", counts[trace.KindMigrate])
	}
	if counts[KindMigrate.TraceKind()] != 1 {
		t.Errorf("wire.migrate trace events %d, want 1", counts[KindMigrate.TraceKind()])
	}
	var pageArg uint64
	for _, e := range ring.Events() {
		if e.Kind == trace.KindMigrate {
			pageArg = e.Arg
		}
	}
	if pageArg != 77 {
		t.Errorf("migrate event Arg %d, want page id 77", pageArg)
	}
}

// TestTraceConservation is the unit form of the plane's conservation
// invariant: the Args of wire.* trace events sum to the run's
// bytesSent+bytesFetched.
func TestTraceConservation(t *testing.T) {
	p, ctr := newPlane(Options{})
	ring := trace.NewRing(256)
	p.BindTrace(ring)
	task := newTask(0)
	ops := []Op{
		{Kind: KindFetch, Dst: 1, Size: 4096},
		{Kind: KindWrite, Dst: 2, Size: 300},
		{Kind: KindNotify, Dst: 3, Size: 8},
		{Kind: KindWrite, Dst: 0, Size: 999}, // local: neither counted nor traced
		{Kind: KindLockRemote, Dst: 1},
		{Kind: KindBarrierArrive, Dst: 0}, // control ops count even when local
		{Kind: KindAdminReq, Dst: 2, Size: 32},
		{Kind: KindMigrate, Dst: 3, Size: 4096, Arg: 5},
	}
	for _, op := range ops {
		p.Do(task, op)
	}
	var traced int64
	for _, e := range ring.Events() {
		if IsWire(e.Kind) {
			traced += int64(e.Arg)
		}
	}
	counted := ctr.Load(stats.EvBytesSent) + ctr.Load(stats.EvBytesFetched)
	if traced != counted {
		t.Errorf("conservation violated: trace Args sum to %d, counters to %d", traced, counted)
	}
	if traced == 0 {
		t.Error("no wire bytes traced; the invariant is vacuous")
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
// charged duration and counts retries in contended mode, and is ignored
// (bit-identity contract) in default mode.
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

	off, offCtr := newPlane(Options{})
	off.SetFault(fault.New(plan, 42))
	if d := off.Do(newTask(0), Op{Kind: KindLockRemote, Dst: 1}); d != base {
		t.Errorf("default mode consulted the injector for a control op: charged %v, want %v", d, base)
	}
	if got := offCtr.Load(stats.EvSendRetries); got != 0 {
		t.Errorf("default mode counted %d send retries for a control op", got)
	}
}

// TestSetFaultWiresWholeStack checks the single wiring point: one SetFault
// call must arm the delegated data path (vmmc/san) too.
func TestSetFaultWiresWholeStack(t *testing.T) {
	p, ctr := newPlane(Options{})
	inj := fault.New(fault.MustParsePlan("fetch:p=1"), 7)
	p.SetFault(inj)
	if p.Fault() != inj {
		t.Fatal("Fault() does not return the installed injector")
	}
	p.Do(newTask(0), Op{Kind: KindFetch, Dst: 1, Size: 4096})
	if got := ctr.Load(stats.EvFetchRetries); got == 0 {
		t.Error("fetch faults not armed through SetFault; per-layer wiring is back")
	}
	if inj.Injected() == 0 {
		t.Error("injector observed no faults")
	}
}

// TestDoAllocFree: a control op through Plane.Do — dispatch, flat-cost
// lookup, charge, counters and the detached trace check — must not
// allocate.
func TestDoAllocFree(t *testing.T) {
	p, _ := newPlane(Options{})
	task := newTask(0)
	if n := testing.AllocsPerRun(1000, func() {
		p.Do(task, Op{Kind: KindAdminReq, Dst: 1})
	}); n != 0 {
		t.Errorf("Plane.Do allocates %.1f times per control op, want 0", n)
	}
}

// TestKindNames pins the Kind/trace-kind mapping the observability docs
// promise.
func TestKindNames(t *testing.T) {
	if got := KindFetch.TraceKind(); got != trace.Kind("wire.fetch") {
		t.Errorf("KindFetch trace kind %q", got)
	}
	if got := KindBarrierArrive.TraceKind(); got != trace.Kind("wire.barrier") {
		t.Errorf("KindBarrierArrive trace kind %q", got)
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
		if !IsWire(k.TraceKind()) {
			t.Errorf("IsWire(%v) = false", k.TraceKind())
		}
	}
	if IsWire(trace.KindMigrate) || IsWire(trace.KindLock) {
		t.Error("IsWire claims protocol events")
	}
}
