// Package cables implements the paper's contribution: CableS (Cluster
// enabled threadS), a pthreads programming interface for SVM clusters with
//
//   - dynamic thread management: threads may be created and destroyed at any
//     time; nodes are attached to the application on demand and detached when
//     empty (§2.2);
//   - dynamic global memory management: shared memory can be allocated and
//     freed throughout execution, with first-touch home placement at the
//     OS mapping granularity, a global segment directory kept in the ACB,
//     migration mechanisms, and double virtual mappings that keep NIC
//     registration to one region per node (§2.1.3);
//   - modern synchronization: mutexes on system locks, condition variables,
//     and a pthread_barrier extension (§2.3);
//   - transparent global static variables (the GLOBAL quantifier region).
//
// The coherence machinery underneath is the same home-based release-
// consistent protocol as the base system (package genima); CableS replaces
// its placement, registration and management layers.
package cables

import (
	"fmt"

	"cables/internal/fault"
	"cables/internal/genima"
	"cables/internal/memsys"
	"cables/internal/nodeos"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// Config selects the cluster shape and CableS policies.
type Config struct {
	// MaxNodes is the cluster size available for on-demand attach.
	MaxNodes int
	// ProcsPerNode is the SMP width (paper: 2).
	ProcsPerNode int
	// ThreadsPerNode is the maximum threads placed on a node before a new
	// node is attached (paper: "when threads exceed a maximum number, a new
	// node is attached"); defaults to ProcsPerNode.
	ThreadsPerNode int
	// ArenaBytes is the shared arena size (default 256 MB).
	ArenaBytes int64
	// Costs optionally overrides the cost table.
	Costs *sim.Costs
	// PrestartNodes attaches this many nodes at Start (default 1: only the
	// master; others attach on demand).
	PrestartNodes int
	// Placement overrides home placement: "firsttouch" (default) or
	// "roundrobin" (ablation).
	Placement string
	// CoordinatorMain marks the main thread as a pure coordinator that
	// spends the run blocked in joins: it does not occupy a scheduling slot
	// when placing new threads (the SPLASH CREATE/WAIT_FOR_END template).
	CoordinatorMain bool
	// Fault optionally injects deterministic faults (transient NIC
	// failures, registration pressure, node lifecycle events); nil
	// disables injection.
	Fault *fault.Injector
	// Wire selects the wire plane's opt-in mode (contended sync); the zero
	// value reproduces the default schedule.
	Wire wire.Options
	// Protocol names the coherence policy (coherence.Names); empty selects
	// genima.
	Protocol string
}

// Runtime is one CableS application instance.
type Runtime struct {
	cl    *nodeos.Cluster
	proto *genima.Protocol
	cfg   Config
	mem   *MemManager
	acb   *ACB
	main  *Thread

	// Stats, when set, receives per-operation cost records from the
	// library itself (used by the Table 4 microbenchmarks to report API
	// overheads separated from blocking time).
	Stats *stats.OpStats
}

// Thread is a pthread: a simulated task plus CableS bookkeeping.
type Thread struct {
	// Task is the simulated execution context; pass it to memory accessors.
	Task *sim.Task
	// TID is the application-wide pthread identifier.
	TID int

	rt   *Runtime
	exit sim.Exit
	ret  any

	// waiting is the thread's entry on a condition variable's wait list
	// while it waits there, so pthread_cancel can claim and wake it.
	waiting *condWaiter

	keys map[int]any
}

// ACB is the application control block: the per-application global state
// kept on the master node and updated via direct remote operations (§2.2).
// Only the cell's tasks reach it, one at a time in the scheduler slot, so
// it needs no lock of its own.
type ACB struct {
	masterNode int
	threads    map[int]*Thread
	liveOnNode []int
	attached   []bool
	numAttach  int
	nextTID    int
	rrNode     int
	endMax     sim.Time
	nextLockID int
	nextCondID int
	nextKey    int
}

// New creates a CableS runtime.  Call Start to obtain the main thread
// (the pthread_start() of the paper's programming model, Figure 4).
func New(cfg Config) *Runtime {
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 16
	}
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 2
	}
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = cfg.ProcsPerNode
	}
	if cfg.ArenaBytes <= 0 {
		cfg.ArenaBytes = 256 << 20
	}
	if cfg.PrestartNodes <= 0 {
		cfg.PrestartNodes = 1
	}
	cl := nodeos.NewCluster(nodeos.Config{
		NumNodes:     cfg.MaxNodes,
		ProcsPerNode: cfg.ProcsPerNode,
		Costs:        cfg.Costs,
		Fault:        cfg.Fault,
		Wire:         cfg.Wire,
	})
	rt := &Runtime{cl: cl, cfg: cfg}
	rt.acb = &ACB{
		masterNode: 0,
		threads:    make(map[int]*Thread),
		liveOnNode: make([]int, cfg.MaxNodes),
		attached:   make([]bool, cfg.MaxNodes),
	}
	rt.mem = newMemManager(rt)
	rt.proto = genima.New(cl, cfg.ArenaBytes, rt.mem)
	if err := rt.proto.UseProtocol(cfg.Protocol); err != nil {
		panic(fmt.Sprintf("cables: %v", err))
	}
	rt.mem.bind(rt.proto.Space())
	return rt
}

// Cluster exposes the simulated machine.
func (rt *Runtime) Cluster() *nodeos.Cluster { return rt.cl }

// Protocol exposes the underlying SVM protocol (statistics, tests).
func (rt *Runtime) Protocol() *genima.Protocol { return rt.proto }

// Acc returns the shared-memory accessor.
func (rt *Runtime) Acc() *memsys.Accessor { return rt.proto.Accessor() }

// Mem returns the dynamic memory manager.
func (rt *Runtime) Mem() *MemManager { return rt.mem }

// Start initializes the application on the master node and returns the main
// thread (pthread_start()).
func (rt *Runtime) Start() *Thread {
	if rt.main != nil {
		return rt.main
	}
	rt.acb.attached[0] = true
	rt.acb.numAttach = 1
	rt.acb.nextTID = 1

	task := rt.cl.NewTask(0, 0)
	rt.cl.Sched.Adopt(task) // the caller's goroutine is the main thread
	rt.main = &Thread{
		Task: task, TID: 0, rt: rt,
	}
	rt.acb.threads[0] = rt.main
	if !rt.cfg.CoordinatorMain {
		rt.acb.liveOnNode[0]++
	}
	rt.cl.Nodes[0].ThreadStarted()

	rt.mem.initNode(task, 0)
	rt.mem.initGlobalData(task)
	for n := 1; n < rt.cfg.PrestartNodes && n < rt.cfg.MaxNodes; n++ {
		rt.attachNode(task, n)
	}
	return rt.main
}

// Main returns the main thread (valid after Start).
func (rt *Runtime) Main() *Thread { return rt.main }

// chargeAdmin charges an ACB administration request: cheap on the master
// node, one round trip otherwise (Table 4, "administration request").
func (rt *Runtime) chargeAdmin(t *sim.Task) {
	c := rt.cl.Costs
	t.Charge(sim.CatLocal, c.AdminReqLocal)
	if t.NodeID != rt.acb.masterNode {
		rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindAdminReq, Dst: rt.acb.masterNode})
	}
	rt.cl.Ctr.Add(t.NodeID, stats.EvAdminRequests, 1)
}

// attachNode introduces node into the application: the master creates a
// remote process, the new node initializes and maps all existing global
// memory, and the master broadcasts its existence (§2.2 case ii).
func (rt *Runtime) attachNode(t *sim.Task, node int) {
	t.OpenSpan(uint8(profile.SpanAttach), uint64(node))
	defer t.CloseSpan()
	c := rt.cl.Costs
	// A fault plan may delay the node's boot; the attaching thread blocks
	// for the extra latency before the normal attach sequence begins.
	if d := rt.cl.Fault.AttachDelay(node); d > 0 {
		t.Charge(sim.CatWait, d)
	}
	// Charged sequential chain (sums to the observed 3690 ms total).
	t.Charge(sim.CatLocal, c.AttachLocal)
	t.Charge(sim.CatLocalOS, c.AttachLocalOS)
	rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindAttach, Dst: node})
	t.Charge(sim.CatRemote, c.AttachRemote)
	// The remote process creation overlaps the above (paper: breakdowns "will
	// not exactly add up to the total"); attribute without advancing.
	t.Attribute(sim.CatRemoteOS, c.AttachRemoteOS)

	rt.mem.initNode(t, node)

	rt.acb.attached[node] = true
	rt.acb.numAttach++
	rt.cl.Ctr.Add(t.NodeID, stats.EvNodesAttached, 1)
}

// AttachNode explicitly attaches the next unattached node to the
// application (applications may also warm nodes up front; thread creation
// attaches nodes implicitly).  Returns the node id.
func (rt *Runtime) AttachNode(t *sim.Task) (int, error) {
	node := -1
	for n := 0; n < rt.cfg.MaxNodes; n++ {
		if !rt.acb.attached[n] && !rt.cl.Fault.Detached(n, t.Now()) {
			node = n
			break
		}
	}
	if node < 0 {
		return -1, errf("cables: no unattached node available")
	}
	rt.attachNode(t, node)
	return node, nil
}

// pickNode chooses the node for a new thread at virtual instant now:
// round-robin over attached nodes, attaching a fresh node when all attached
// nodes are at the ThreadsPerNode limit.  Nodes a fault plan has detached by
// now are never chosen; their in-flight threads drain but no new work lands
// on them.  Returns the node and whether attach is required.
func (rt *Runtime) pickNode(now sim.Time) (node int, needAttach bool) {
	dead := func(n int) bool { return rt.cl.Fault.Detached(n, now) }
	a := rt.acb
	live := 0
	for n := 0; n < rt.cfg.MaxNodes; n++ {
		if a.attached[n] {
			live += a.liveOnNode[n]
		}
	}
	if live+1 > a.numAttach*rt.cfg.ThreadsPerNode {
		for n := 0; n < rt.cfg.MaxNodes; n++ {
			if !a.attached[n] && !dead(n) {
				a.attached[n] = true // reserve; attach completes outside
				a.numAttach++
				a.liveOnNode[n]++
				return n, true
			}
		}
	}
	for i := 0; i < rt.cfg.MaxNodes; i++ {
		n := (a.rrNode + i) % rt.cfg.MaxNodes
		if a.attached[n] && !dead(n) && a.liveOnNode[n] < rt.cfg.ThreadsPerNode {
			a.rrNode = (n + 1) % rt.cfg.MaxNodes
			a.liveOnNode[n]++
			return n, false
		}
	}
	// Every attached node is full and no node is left: overload round-robin.
	// The master can always take overload, so this terminates even when a
	// fault plan has detached every other node.
	n := a.rrNode % rt.cfg.MaxNodes
	for !a.attached[n] || (dead(n) && n != a.masterNode) {
		n = (n + 1) % rt.cfg.MaxNodes
	}
	a.rrNode = (n + 1) % rt.cfg.MaxNodes
	a.liveOnNode[n]++
	return n, false
}

// Create starts a new pthread running fn (pthread_create).  Placement and
// costs follow §2.2: local create, remote create on an attached node, or
// node attach.
func (rt *Runtime) Create(parent *sim.Task, fn func(th *Thread)) *Thread {
	parent.CancelPoint()
	// Thread creation has release semantics: the parent's writes must be
	// visible to the child (POSIX 4.12).
	rt.proto.Flush(parent)
	c := rt.cl.Costs
	node, needAttach := rt.pickNode(parent.Now())
	parent.OpenSpan(uint8(profile.SpanCreate), uint64(node))
	defer parent.CloseSpan()
	if needAttach {
		rt.acb.attached[node] = false // attachNode re-marks under its own charges
		rt.acb.numAttach--
		rt.attachNode(parent, node)
	}

	switch {
	case node == parent.NodeID:
		parent.Charge(sim.CatLocal, c.ThreadCreateLocal)
		parent.Charge(sim.CatLocalOS, c.OSThreadCreate)
	default:
		parent.Charge(sim.CatLocal, c.ThreadCreateReqLocal)
		parent.Charge(sim.CatRemote, c.ThreadCreateReqRemote)
		rt.cl.Wire.Do(parent, wire.Op{Kind: wire.KindThreadCreate, Dst: node})
		parent.Charge(sim.CatRemoteOS, c.OSRemoteThreadCreate)
	}

	a := rt.acb
	tid := a.nextTID
	a.nextTID++
	th := &Thread{
		Task: rt.cl.NewTask(node, parent.Now()),
		TID:  tid,
		rt:   rt,
	}
	a.threads[tid] = th

	rt.cl.Ctr.Add(node, stats.EvThreadsCreated, 1)
	rt.cl.Nodes[node].ThreadStarted()
	rt.cl.Sched.Go(th.Task, func() { th.run(fn) })
	return th
}

// run executes the thread body, handling cancellation unwinds and exit
// bookkeeping (including node detach when a node empties, §2.2).
func (th *Thread) run(fn func(*Thread)) {
	defer func() {
		r := recover()
		if r != nil && r != sim.ErrCanceled {
			panic(r)
		}
		th.finish()
	}()
	th.rt.proto.ApplyAcquire(th.Task) // acquire the parent's pre-create writes
	fn(th)
}

func (th *Thread) finish() {
	rt := th.rt
	// Thread exit has release semantics: a joiner must see its writes.
	rt.proto.Flush(th.Task)
	node := th.Task.NodeID
	rt.cl.Nodes[node].ThreadStopped()
	a := rt.acb
	a.liveOnNode[node]--
	if th.Task.Now() > a.endMax {
		a.endMax = th.Task.Now()
	}
	empty := a.liveOnNode[node] == 0 && node != a.masterNode
	if empty && a.attached[node] {
		// Dynamic detach: the node leaves the application when no threads
		// remain on it (mechanism per §2.2).
		a.attached[node] = false
		a.numAttach--
	}
	th.exit.Close(th.Task.Now())
}

// Join blocks the caller until th finishes (pthread_join), merging clocks
// and reading completion state from the ACB.
func (rt *Runtime) Join(t *sim.Task, th *Thread) {
	t.CancelPoint()
	// The joining thread blocks in the OS and releases its processor (and
	// its scheduler slot: the joined thread may need it to finish).
	node := rt.cl.Nodes[t.NodeID]
	node.ThreadStopped()
	end := th.exit.Wait(t)
	node.ThreadStarted()
	rt.chargeAdmin(t)
	t.WaitUntil(end)
	rt.proto.ApplyAcquire(t) // join has acquire semantics
}

// Cancel requests cancellation of th (pthread_cancel); the thread unwinds
// at its next cancellation point.  A thread waiting on a condition variable
// is one: unless a signal claimed it first, Cancel takes it off the wait
// list and wakes it to unwind.  The wake-up does not move its clock.
func (rt *Runtime) Cancel(t *sim.Task, th *Thread) {
	rt.chargeAdmin(t)
	th.Task.Cancel()
	if w := th.waiting; w != nil && w.c.cancel(w) {
		th.Task.Unpark(th.Task.Now())
	}
}

// KeyCreate allocates a thread-specific-data key (pthread_key_create).
func (rt *Runtime) KeyCreate(t *sim.Task) int {
	rt.chargeAdmin(t)
	a := rt.acb
	a.nextKey++
	return a.nextKey
}

// SetSpecific stores thread-specific data (pthread_setspecific).
func (th *Thread) SetSpecific(key int, v any) {
	if th.keys == nil {
		th.keys = make(map[int]any)
	}
	th.keys[key] = v
}

// GetSpecific retrieves thread-specific data (pthread_getspecific).
func (th *Thread) GetSpecific(key int) any {
	return th.keys[key]
}

// AttachedNodes reports how many nodes the application currently spans.
func (rt *Runtime) AttachedNodes() int {
	return rt.acb.numAttach
}

// End declares the application over (pthread_end) and returns the virtual
// end time (max over all threads).
func (rt *Runtime) End(t *sim.Task) sim.Time {
	a := rt.acb
	if t.Now() > a.endMax {
		a.endMax = t.Now()
	}
	return a.endMax
}

// newLockID allocates a cluster-wide lock identifier from the ACB.
func (rt *Runtime) newLockID() int {
	a := rt.acb
	a.nextLockID++
	return a.nextLockID
}

// newCondID allocates a cluster-wide condition-variable identifier (used
// only to key the profiler's cond-wait spans; see Cond.id).
func (rt *Runtime) newCondID() int {
	a := rt.acb
	a.nextCondID++
	return a.nextCondID
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
