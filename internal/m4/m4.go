// Package m4 implements the M4-macro programming environment (CREATE,
// WAIT_FOR_END, LOCK, BARRIER, G_MALLOC) directly on the base GeNIMA SVM
// system — the "original, optimized SVM system" configuration of the paper's
// Figure 5.  It follows the traditional SVM template (paper Figure 2): all
// nodes present from initialization, one worker thread per processor,
// static registration of shared segments.
package m4

import (
	"fmt"
	"sync"

	"cables/internal/apps/appapi"
	"cables/internal/fault"
	"cables/internal/genima"
	"cables/internal/memsys"
	"cables/internal/nodeos"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// Runtime is the M4-on-GeNIMA backend.
type Runtime struct {
	cl    *nodeos.Cluster
	proto *genima.Protocol
	procs int
	main  *sim.Task

	mu      sync.Mutex
	nextID  int
	nodeSeq int
	done    map[int]chan sim.Time
	endMax  sim.Time
}

// Config selects the run shape for the base system.
type Config struct {
	// Procs is the processor count (1, 4, 8, 16, 32 in the paper).
	Procs int
	// ProcsPerNode is the SMP width (paper: 2).
	ProcsPerNode int
	// ArenaBytes is the shared arena size.
	ArenaBytes int64
	// Costs optionally overrides the cost table.
	Costs *sim.Costs
	// Fault optionally injects deterministic faults (see internal/fault).
	Fault *fault.Injector
	// Wire selects the wire plane's opt-in modes (contended sync, release
	// coalescing); the zero value reproduces the default schedule.
	Wire wire.Options
	// Protocol names the coherence policy (coherence.Names); empty selects
	// the process default (CABLES_PROTOCOL / `cablesim -protocol`).
	Protocol string
}

// New builds a base-system runtime.  All nodes required for Procs are
// attached up front, as the traditional template demands.
func New(cfg Config) *Runtime {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("m4: invalid processor count %d", cfg.Procs))
	}
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 2
	}
	if cfg.ArenaBytes <= 0 {
		cfg.ArenaBytes = 256 << 20
	}
	nodes := (cfg.Procs + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	cl := nodeos.NewCluster(nodeos.Config{
		NumNodes:     nodes,
		ProcsPerNode: cfg.ProcsPerNode,
		Costs:        cfg.Costs,
		Fault:        cfg.Fault,
		Wire:         cfg.Wire,
	})
	rt := &Runtime{
		cl:    cl,
		proto: genima.New(cl, cfg.ArenaBytes, genima.FirstTouch{}),
		procs: cfg.Procs,
		done:  make(map[int]chan sim.Time),
	}
	if err := rt.proto.UseProtocol(cfg.Protocol); err != nil {
		panic(fmt.Sprintf("m4: %v", err))
	}
	for _, n := range cl.Nodes {
		n.SetAttached(true)
	}
	rt.main = cl.NewTask(0, 0)
	cl.Nodes[0].ThreadStarted()
	return rt
}

// BackendName implements appapi.Name.
func (rt *Runtime) BackendName() string { return "genima" }

// Protocol exposes the underlying SVM protocol.
func (rt *Runtime) Protocol() *genima.Protocol { return rt.proto }

// Cluster implements appapi.Runtime.
func (rt *Runtime) Cluster() *nodeos.Cluster { return rt.cl }

// Main implements appapi.Runtime.
func (rt *Runtime) Main() *sim.Task { return rt.main }

// Procs implements appapi.Runtime.
func (rt *Runtime) Procs() int { return rt.procs }

// Acc implements appapi.Runtime.
func (rt *Runtime) Acc() *memsys.Accessor { return rt.proto.Accessor() }

// Spawn implements appapi.Runtime: the worker is placed round-robin over
// the cluster's nodes (one per processor in the traditional template).
func (rt *Runtime) Spawn(parent *sim.Task, fn func(t *sim.Task)) int {
	rt.mu.Lock()
	rt.nextID++
	id := rt.nextID
	node := rt.nodeSeq % rt.cl.NumNodes()
	rt.nodeSeq++
	ch := make(chan sim.Time, 1)
	rt.done[id] = ch
	rt.mu.Unlock()

	// Creation has release semantics (the child must see prior writes).
	rt.proto.Flush(parent)
	parent.OpenSpan(uint8(profile.SpanCreate), uint64(node))
	parent.Charge(sim.CatLocalOS, rt.cl.Costs.OSThreadCreate)
	if node != parent.NodeID {
		rt.cl.Wire.Do(parent, wire.Op{Kind: wire.KindSpawn, Dst: node})
	}
	parent.CloseSpan()
	child := rt.cl.NewTask(node, parent.Now())
	rt.cl.Ctr.Add(node, stats.EvThreadsCreated, 1)
	rt.cl.Nodes[node].ThreadStarted()
	rt.cl.Sched.Go(child, func() {
		defer func() {
			r := recover()
			rt.proto.Flush(child) // exit has release semantics
			rt.cl.Nodes[node].ThreadStopped()
			rt.mu.Lock()
			if child.Now() > rt.endMax {
				rt.endMax = child.Now()
			}
			rt.mu.Unlock()
			ch <- child.Now()
			if r != nil && r != sim.ErrCanceled {
				panic(r)
			}
		}()
		rt.proto.ApplyAcquire(child)
		fn(child)
	})
	return id
}

// Join implements appapi.Runtime.
func (rt *Runtime) Join(parent *sim.Task, id int) {
	rt.mu.Lock()
	ch, ok := rt.done[id]
	rt.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("m4: join of unknown thread %d", id))
	}
	// The joining thread blocks in the OS and releases its processor (and
	// its scheduler slot: the join waits on the child's real progress).
	node := rt.cl.Nodes[parent.NodeID]
	node.ThreadStopped()
	parent.Block()
	end := <-ch
	ch <- end // allow repeated joins from WAIT_FOR_END sweeps
	parent.Unblock()
	node.ThreadStarted()
	parent.WaitUntil(end)
	rt.proto.ApplyAcquire(parent) // join has acquire semantics
}

// Lock implements appapi.Runtime (the M4 LOCK macro).
func (rt *Runtime) Lock(t *sim.Task, id int) { rt.proto.NewLock(id).Acquire(t) }

// Unlock implements appapi.Runtime (the M4 UNLOCK macro).
func (rt *Runtime) Unlock(t *sim.Task, id int) { rt.proto.NewLock(id).Release(t) }

// Barrier implements appapi.Runtime (the M4 BARRIER macro).
func (rt *Runtime) Barrier(t *sim.Task, name string, parties int) {
	rt.proto.NewBarrier(name).Wait(t, parties)
}

// Malloc implements appapi.Runtime (the G_MALLOC macro): allocation plus
// static registration on every node, the base system's costly pattern.
func (rt *Runtime) Malloc(t *sim.Task, label string, size int64) (memsys.Addr, error) {
	return rt.proto.Alloc(t, label, size)
}

// Finish implements appapi.Runtime.
func (rt *Runtime) Finish() sim.Time {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.main.Now() > rt.endMax {
		rt.endMax = rt.main.Now()
	}
	return rt.endMax
}

var _ appapi.Runtime = (*Runtime)(nil)
