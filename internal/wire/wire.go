// Package wire is the typed operation plane for all cross-node traffic in
// the simulator.  Every message a node sends another — page fetches, diff
// flushes, write notices, notifications, lock requests and grants, barrier
// arrivals, condition-variable traffic, ACB admin requests, remote thread
// creation, node attach, page/segment migration — is expressed as a
// wire.Op and issued through one choke point, Plane.Do, which
//
//   - prices the op: a data-plane op (VMMC remote write, fetch, stream,
//     notify) is a same-node memory copy or a transfer that books the
//     sender's NIC port (san.Fabric.Reserve) and pays Table 3 latency; a
//     control-plane op charges its calibrated flat communication share,
//   - consults the fault injector (fault.Injector.Retry) at exactly one
//     site per op class, and
//   - opens one profiler span (SpanWire, rendered "wire.<kind>") and bumps
//     EvWireOps for every op, and is the only place that bumps the traffic
//     counters EvMessagesSent/EvBytesSent, EvFetches/EvBytesFetched and
//     EvNotifications.
//
// One opt-in mode becomes possible because the traffic shares one path:
// Options.ContendedSync (-contended-sync) makes control-plane ops reserve
// NIC occupancy like data transfers and suffer the fault plan's transient
// send failures, exposing sync-vs-data interference.
//
// Byte accounting: a remote data-plane op adds exactly its Size to one of
// EvBytesSent/EvBytesFetched and a node-local one adds nothing
// (TestDelegatedOps); a control-plane op adds its Size to EvBytesSent
// (TestNominalSizes).
package wire

import (
	"fmt"

	"cables/internal/fault"
	"cables/internal/profile"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
)

// Kind classifies wire operations.
type Kind int

// Data-plane kinds: VMMC transfers priced by NIC latency, port occupancy
// and transient faults (doData); node-local ones are memory copies.
const (
	// KindFetch pulls Size bytes from the home node Dst (page fetch).
	KindFetch Kind = iota
	// KindWrite pushes Size bytes to Dst (diff flush, write notice).
	KindWrite
	// KindStream is a pipelined bulk write to Dst (bandwidth pattern).
	KindStream
	// KindStreamFetch is a pipelined bulk read from Dst.
	KindStreamFetch
	// KindNotify is a send plus receiver-side notification dispatch.
	KindNotify
	// KindMigrate re-fetches a page from its old home Dst when the home
	// moves; Arg is the page id (counted as EvPageMigrations).
	KindMigrate

	// Control-plane kinds: flat calibrated communication shares (Table 4).
	// Under Options.ContendedSync they additionally queue for the NIC.

	// KindLockFirst is the registration message of a first, local acquire.
	KindLockFirst
	// KindLockRemote is a remote lock request to the manager Dst.
	KindLockRemote
	// KindLockRemoteFirst is a remote request that first registers the lock.
	KindLockRemoteFirst
	// KindLockGrant hands a released lock to the waiter Dst (DeliverAt).
	KindLockGrant
	// KindBarrierArrive announces arrival to the barrier manager Dst.
	KindBarrierArrive
	// KindCondWait updates the ACB when a thread blocks on a condition.
	KindCondWait
	// KindCondSignal wakes one waiter on node Dst.
	KindCondSignal
	// KindCondBcast wakes the waiters of one remote node Dst (one op per
	// distinct node).
	KindCondBcast
	// KindAdminReq is an ACB administration request to the master Dst.
	KindAdminReq
	// KindAttach is the mapping exchange when node Src joins the cluster.
	KindAttach
	// KindThreadCreate asks node Dst to start a thread.
	KindThreadCreate
	// KindSpawn is the M4 m_fork work-dispatch message to Dst.
	KindSpawn
	// KindSegMigrate moves a segment's ACB entry off the master.
	KindSegMigrate
	// KindSegDetect is the first-touch owner-directory fetch.
	KindSegDetect
	// KindRehome redirects a lock/barrier manager off a detached node.
	KindRehome
	// KindCommMerge is the commutative protocol's batched reduction
	// merge: one remote write to home Dst carrying every merged diff of
	// the flush (data-plane; priced like KindWrite).
	KindCommMerge
	// KindDelegateReq ships a critical-section descriptor to the lock's
	// delegation server Dst; Arg is the lock id.
	KindDelegateReq
	// KindDelegateDone returns a delegated critical section's completion
	// from the server to the origin node Dst; Arg is the lock id.
	KindDelegateDone

	numKinds
)

// NumKinds is the number of distinct op kinds.
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	"fetch", "write", "stream", "streamfetch", "notify", "migrate",
	"lock1", "lockr", "lockr1", "grant", "barrier",
	"cwait", "csignal", "cbcast", "admin", "attach", "tcreate",
	"spawn", "segmig", "segdet", "rehome", "merge", "delreq", "deldone",
}

// Register the plane's kind names with the profiler so SpanWire timeline
// events render as "wire.<kind>" without profile importing wire.
func init() {
	profile.WireArgName = func(arg uint64) string { return Kind(arg).String() }
}

// String names the kind (the suffix of its "wire.<kind>" timeline name).
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// dataPlane reports whether the kind is a VMMC data transfer (doData)
// rather than a control message on the flat schedule.
func (k Kind) dataPlane() bool { return k <= KindMigrate || k == KindCommMerge }

// nominalSize is the modeled message size when the caller leaves Op.Size
// zero: control messages are small; thread-control, migration and
// critical-section-descriptor messages carry a descriptor.
func (k Kind) nominalSize() int {
	switch k {
	case KindAttach, KindThreadCreate, KindSpawn, KindSegMigrate, KindRehome,
		KindDelegateReq, KindDelegateDone:
		return 64
	default:
		return 16
	}
}

// Op is one cross-node operation.
type Op struct {
	Kind Kind
	Src  int    // issuing node; Do fills it from the task
	Dst  int    // peer node (home, manager, waiter, master, ...)
	Size int    // payload bytes; 0 means the kind's nominal size
	Arg  uint64 // page id / lock id payload
}

// Options selects the plane's opt-in modes.  The zero value charges the
// calibrated Table-4 schedule (flatCost).
type Options struct {
	// ContendedSync makes control-plane ops reserve NIC occupancy like
	// data traffic and suffer the fault plan's transient send failures.
	ContendedSync bool
}

// Plane is the single choke point for cross-node operations.  One Plane
// serves a whole cluster; it is safe for concurrent use by all tasks.
type Plane struct {
	fab   *san.Fabric
	vm    *vmmc.System
	costs *sim.Costs
	ctr   *stats.Counters
	inj   *fault.Injector // nil = no fault injection
	opts  Options
}

// New builds a plane over the fabric and VMMC system.
func New(fab *san.Fabric, vm *vmmc.System, opts Options) *Plane {
	return &Plane{fab: fab, vm: vm, costs: fab.Costs(), ctr: fab.Counters(), opts: opts}
}

// SetFault installs the fault injector on the whole communication stack —
// the plane's transient send/fetch/notify failures and the NICs'
// registration-memory pressure — and binds the injector's counters.  nil
// disables injection everywhere.
func (p *Plane) SetFault(inj *fault.Injector) {
	p.inj = inj
	p.vm.SetFault(inj)
	if inj != nil {
		inj.BindCounters(p.ctr)
	}
}

// Do performs op on behalf of task t, charging t the op's full cost, and
// returns the duration charged.  Src is taken from the task.
func (p *Plane) Do(t *sim.Task, op Op) sim.Time {
	op.Src = t.MemNode()
	if op.Size == 0 {
		op.Size = op.Kind.nominalSize()
	}
	t.OpenSpan(uint8(profile.SpanWire), uint64(op.Kind))
	p.ctr.Add(op.Src, stats.EvWireOps, 1)
	var d sim.Time
	if op.Kind.dataPlane() {
		d = p.doData(t, op)
	} else {
		d = p.controlCost(op, t.Now())
		t.Charge(sim.CatComm, d)
	}
	t.CloseSpan()
	return d
}

// doData prices a data-plane op.  A node-local op is a memory copy
// (~1 GB/s) charged as local time; a remote one pays its Table 3 latency,
// its queueing for the sender's NIC port and its transient-fault retries,
// all as communication time.
func (p *Plane) doData(t *sim.Task, op Op) sim.Time {
	c := p.costs
	if op.Kind == KindMigrate {
		p.ctr.Add(op.Src, stats.EvPageMigrations, 1)
	}
	if op.Kind == KindNotify {
		p.ctr.Add(op.Src, stats.EvNotifications, 1)
	}
	if op.Dst == op.Src {
		d := sim.Time(op.Size)
		if op.Kind == KindNotify {
			d += c.Notification / 4
		}
		t.Charge(sim.CatLocal, d)
		return d
	}
	if op.Dst < 0 || op.Dst >= p.fab.Nodes() {
		panic(fmt.Sprintf("wire: node out of range (src=%d dst=%d nodes=%d)", op.Src, op.Dst, p.fab.Nodes()))
	}
	now := t.Now()
	var d sim.Time
	switch op.Kind {
	case KindFetch, KindMigrate:
		d = c.FetchTime(op.Size)
		d += p.delay(fault.KindFetch, op, now, d)
	case KindWrite, KindCommMerge:
		d = c.SendTime(op.Size)
		d += p.delay(fault.KindSend, op, now, d)
	case KindStream:
		// Pipelined: one latency plus bandwidth-limited occupancy (Table 3's
		// bandwidth microbenchmark).
		d = c.SendBase + c.Occupancy(op.Size)
		d += p.delay(fault.KindSend, op, now, d)
	case KindStreamFetch:
		d = c.FetchBase + c.Occupancy(op.Size)
		d += p.delay(fault.KindFetch, op, now, d)
	case KindNotify:
		// A lost notification costs a full delivery timeout plus backoff
		// before the re-send; the losses are drawn before the send's faults.
		lost := p.inj.Retry(fault.KindNotify, op.Src, op.Dst, now, c.SendTime(op.Size)+c.Notification)
		d = c.SendTime(op.Size)
		d += p.delay(fault.KindSend, op, now, d) + c.Notification + lost
	}
	t.Charge(sim.CatComm, d)
	if op.Kind == KindFetch || op.Kind == KindMigrate || op.Kind == KindStreamFetch {
		p.ctr.Add(op.Src, stats.EvFetches, 1)
		p.ctr.Add(op.Src, stats.EvBytesFetched, int64(op.Size))
	} else {
		p.count(op)
	}
	return d
}

// delay is what a port-booking message of fault class k issued at now pays
// beyond its idle, fault-free cost: the plan's transient failures, each
// costing a full attempt plus backoff, then queueing for the sender's NIC
// port.
func (p *Plane) delay(k fault.RuleKind, op Op, now, attempt sim.Time) sim.Time {
	penalty := p.inj.Retry(k, op.Src, op.Dst, now, attempt)
	start := p.fab.Reserve(op.Src, now, p.costs.Occupancy(op.Size))
	return (start - now) + penalty
}

// controlCost prices a control-plane op issued at now and counts its
// message.  Control messages always traverse the communication substrate
// (the ACB lives in registered memory), so the flat share is charged and
// the message counted even when Dst is the issuing node; under
// ContendedSync a cross-node op additionally suffers the plan's transient
// send faults and queues for the sender's NIC port.
func (p *Plane) controlCost(op Op, now sim.Time) sim.Time {
	d := p.flatCost(op.Kind, op.Size)
	if p.opts.ContendedSync && op.Dst != op.Src {
		d += p.delay(fault.KindSend, op, now, p.costs.SendTime(op.Size))
	}
	p.count(op)
	return d
}

// DeliverAt performs a control-plane op issued at virtual instant `now` on
// behalf of node op.Src without a running task to charge — the lock-grant
// handoff, where the releaser has moved on and the waiter pays the latency
// as wait time.  It is priced like any control op (under ContendedSync it
// draws the plan's send faults and books the port) and returns the delivery
// instant at the destination.
func (p *Plane) DeliverAt(now sim.Time, op Op) sim.Time {
	if op.Size == 0 {
		op.Size = op.Kind.nominalSize()
	}
	p.ctr.Add(op.Src, stats.EvWireOps, 1)
	return now + p.controlCost(op, now)
}

// count attributes a sent message and its bytes to the sender.
func (p *Plane) count(op Op) {
	p.ctr.Add(op.Src, stats.EvMessagesSent, 1)
	p.ctr.Add(op.Src, stats.EvBytesSent, int64(op.Size))
}

// flatCost is the default control-plane cost schedule: the calibrated
// Table-4 communication shares (see DESIGN.md §3 for the full table).
func (p *Plane) flatCost(k Kind, size int) sim.Time {
	c := p.costs
	switch k {
	case KindLockFirst:
		return c.MutexLocalFirstComm
	case KindLockRemote:
		return c.MutexRemoteComm
	case KindLockRemoteFirst:
		return c.MutexRemoteComm + c.MutexRemoteFirstAdd
	case KindLockGrant:
		return c.SendTime(size)
	case KindBarrierArrive:
		return c.BarrierNativeComm
	case KindCondWait:
		return c.CondWaitComm
	case KindCondSignal:
		return c.CondSignalComm
	case KindCondBcast:
		return c.CondBcastComm
	case KindAdminReq:
		return c.AdminReqComm
	case KindAttach:
		return c.AttachComm
	case KindThreadCreate:
		return c.ThreadCreateComm
	case KindSpawn, KindRehome, KindDelegateReq, KindDelegateDone:
		return c.SendTime(size)
	case KindSegMigrate:
		return c.SegMigrateComm
	case KindSegDetect:
		return c.SegDetectFirstComm
	}
	panic(fmt.Sprintf("wire: no cost schedule for kind %v", k))
}
