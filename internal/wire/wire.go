// Package wire is the typed operation plane for all cross-node traffic in
// the simulator.  Every message a node sends another — page fetches, diff
// flushes, write notices, notifications, lock requests and grants, barrier
// arrivals, condition-variable traffic, ACB admin requests, remote thread
// creation, node attach, page/segment migration — is expressed as a
// wire.Op and issued through one choke point, Plane.Do, which
//
//   - applies the op's cost schedule (delegating data-plane ops to
//     vmmc/san so they see NIC occupancy and latency, and charging the
//     calibrated flat communication shares for control-plane ops),
//   - consults the fault injector at exactly one site per op class, and
//   - opens one profiler span (SpanWire, rendered "wire.<kind>") and bumps
//     EvWireOps for every op.  A control-plane op also bumps
//     EvMessagesSent/EvBytesSent here; a data-plane op's message and byte
//     counters are bumped by vmmc/san, which see whether it crossed nodes.
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

// Data-plane kinds: the plane delegates their cost to vmmc/san, which model
// NIC queueing, occupancy and transient faults.
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
	// KindLockProbe is a failed remote trylock probe.
	KindLockProbe
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
	// the flush (data-plane; rides vmmc.RemoteWrite like KindWrite).
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
	"lock1", "lockr", "lockr1", "grant", "probe", "barrier",
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

// delegated reports whether the kind's cost comes from vmmc/san rather
// than the flat schedule.
func (k Kind) delegated() bool { return k <= KindMigrate || k == KindCommMerge }

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
// the plane itself, the SAN fabric, and VMMC with all its NICs — and binds
// the injector's counters.  This is the single wiring point that replaced
// the per-layer san.SetFault/vmmc.SetFault/BindCounters calls.  nil
// disables injection everywhere.
func (p *Plane) SetFault(inj *fault.Injector) {
	p.inj = inj
	p.fab.SetFault(inj)
	p.vm.SetFault(inj)
	if inj != nil {
		inj.BindCounters(p.ctr)
	}
}

// Fault returns the installed injector (nil when faults are disabled).
func (p *Plane) Fault() *fault.Injector { return p.inj }

// Do performs op on behalf of task t, charging t the op's full cost.  Src
// is taken from the task.  It returns the communication duration charged
// for control-plane ops (0 for delegated data-plane ops, whose charge is
// applied inside vmmc/san).
func (p *Plane) Do(t *sim.Task, op Op) sim.Time {
	op.Src = t.MemNode()
	if op.Size == 0 {
		op.Size = op.Kind.nominalSize()
	}
	t.OpenSpan(uint8(profile.SpanWire), uint64(op.Kind))
	p.ctr.Add(op.Src, stats.EvWireOps, 1)
	if op.Kind.delegated() {
		p.doData(t, op)
		t.CloseSpan()
		return 0
	}
	d := p.doControl(t, op)
	t.CloseSpan()
	return d
}

// doData routes a data-plane op through vmmc (which models NIC occupancy,
// latency and faults, and bumps the message/byte counters when the op
// actually crosses nodes).
func (p *Plane) doData(t *sim.Task, op Op) {
	switch op.Kind {
	case KindFetch:
		p.vm.Fetch(t, op.Dst, op.Size)
	case KindMigrate:
		p.vm.Fetch(t, op.Dst, op.Size)
		p.ctr.Add(op.Src, stats.EvPageMigrations, 1)
	case KindWrite, KindCommMerge:
		p.vm.RemoteWrite(t, op.Dst, op.Size)
	case KindStream:
		p.vm.StreamWrite(t, op.Dst, op.Size)
	case KindStreamFetch:
		p.vm.StreamFetch(t, op.Dst, op.Size)
	case KindNotify:
		p.vm.Notify(t, op.Dst, op.Size)
	}
}

// doControl charges the flat calibrated communication share for a
// control-plane op.  Control messages always traverse the communication
// substrate (the ACB lives in registered memory), so the share is charged
// and the message counted even when Dst is the issuing node; under
// ContendedSync a cross-node op additionally queues for the sender's NIC
// and suffers transient send faults.
func (p *Plane) doControl(t *sim.Task, op Op) sim.Time {
	d := p.flatCost(op.Kind, op.Size)
	if p.opts.ContendedSync && op.Dst != op.Src {
		now := t.Now()
		penalty := p.inj.Retry(fault.KindSend, op.Src, op.Dst, now, p.costs.SendTime(op.Size))
		start := p.fab.Reserve(op.Src, now, p.costs.Occupancy(op.Size))
		d += (start - now) + penalty
	}
	t.Charge(sim.CatComm, d)
	p.count(op)
	return d
}

// DeliverAt performs a control-plane op issued at virtual instant `now` on
// behalf of node op.Src without a running task to charge — the lock-grant
// handoff, where the releaser has moved on and the waiter pays the latency
// as wait time.  It returns the delivery instant at the destination.
func (p *Plane) DeliverAt(now sim.Time, op Op) sim.Time {
	if op.Size == 0 {
		op.Size = op.Kind.nominalSize()
	}
	p.ctr.Add(op.Src, stats.EvWireOps, 1)
	d := p.flatCost(op.Kind, op.Size)
	if p.opts.ContendedSync && op.Dst != op.Src {
		start := p.fab.Reserve(op.Src, now, p.costs.Occupancy(op.Size))
		d += start - now
	}
	p.count(op)
	return now + d
}

// count attributes a control-plane message to its sender.
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
	case KindLockGrant, KindLockProbe:
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
