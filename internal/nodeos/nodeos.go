// Package nodeos models the per-node operating system (WindowsNT in the
// paper) and assembles the cluster: nodes with a fixed processor count,
// kernel-thread scheduling with time-sharing dilation when threads exceed
// processors, OS service costs (thread/process creation, virtual-memory
// remapping), and the OS virtual-memory mapping granularity that drives the
// paper's data-placement results.
//
// NewCluster also assembles the wire plane (internal/wire) over the SAN
// fabric and VMMC system, and installs an optional fault injector
// (Config.Fault, see internal/fault) through the plane's single wiring
// point — one injector then governs every fault site of a simulation.
package nodeos

import (
	"fmt"
	"sync/atomic"

	"cables/internal/fault"
	"cables/internal/profile"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
	"cables/internal/wire"
)

// Node is one cluster machine (a 2-way SMP in the paper's testbed).
type Node struct {
	// ID is the node's cluster-wide identifier.
	ID int
	// SMP is the node's processors and runnable-thread count; the node's
	// tasks dilate their computation by it (sim.Task.Compute).
	sim.SMP

	costs *sim.Costs
}

// ChargeMapSegment charges t for an OS virtual-memory (re)mapping call.
func (n *Node) ChargeMapSegment(t *sim.Task) {
	t.Charge(sim.CatLocalOS, n.costs.OSMapSegment)
}

// Cluster bundles the full simulated machine: nodes, VMMC, wire plane.
type Cluster struct {
	Nodes []*Node
	Costs *sim.Costs
	Ctr   *stats.Counters
	VMMC  *vmmc.System
	// Wire is the typed operation plane all cross-node traffic goes
	// through (internal/wire).
	Wire *wire.Plane
	// Sched is the simulation's thread manager; the runtimes spawn every
	// worker task through it.  It has one execution slot, so the simulated
	// threads of a cell run one at a time in virtual-time order (one
	// scheduler per simulation: concurrent harness cells never share run
	// queues, and they are where host parallelism comes from).
	Sched *sim.Scheduler
	// Fault is the installed fault injector (nil when faults are disabled).
	Fault *fault.Injector
	// Prof, when set (bench.AttachProfiler), adopts every task the cluster
	// creates into the virtual-time profiler.  Attach before the run
	// starts; adoption records spans and charges nothing.
	Prof *profile.Profiler

	taskSeq atomic.Int64
}

// Config selects the cluster shape; every NIC has vmmc.DefaultLimits.
type Config struct {
	// NumNodes is the number of machines (paper: up to 16).
	NumNodes int
	// ProcsPerNode is the SMP width (paper: 2).
	ProcsPerNode int
	// Costs is the virtual-time cost table; nil selects DefaultCosts.
	Costs *sim.Costs
	// Fault optionally injects deterministic faults (see internal/fault);
	// nil disables injection.
	Fault *fault.Injector
	// Wire selects the wire plane's opt-in mode (contended sync); the zero
	// value reproduces the default schedule.
	Wire wire.Options
}

// NewCluster builds a cluster.
func NewCluster(cfg Config) *Cluster {
	if cfg.NumNodes <= 0 {
		panic(fmt.Sprintf("nodeos: invalid node count %d", cfg.NumNodes))
	}
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 2
	}
	costs := cfg.Costs
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	ctr := stats.NewCounters(cfg.NumNodes)
	fab := san.New(cfg.NumNodes, costs, ctr)
	cl := &Cluster{
		Nodes: make([]*Node, cfg.NumNodes),
		Costs: costs,
		Ctr:   ctr,
		VMMC:  vmmc.NewSystem(fab, vmmc.DefaultLimits()),
		Fault: cfg.Fault,
		Sched: sim.NewScheduler(),
	}
	cl.Wire = wire.New(fab, cl.VMMC, cfg.Wire)
	if cfg.Fault != nil {
		cl.Wire.SetFault(cfg.Fault)
	}
	for i := range cl.Nodes {
		cl.Nodes[i] = &Node{ID: i, SMP: sim.SMP{Processors: cfg.ProcsPerNode}, costs: costs}
	}
	return cl
}

// NumNodes returns the machine count.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// NewTask creates a simulated thread bound to node, starting at virtual time
// start, time-sharing the node's processors.
func (c *Cluster) NewTask(node int, start sim.Time) *sim.Task {
	t := sim.NewTask(int(c.taskSeq.Add(1)), node, c.Costs)
	t.SetNow(start)
	t.SMP = &c.Nodes[node].SMP
	if c.Prof != nil {
		c.Prof.Adopt(t)
	}
	return t
}
