// Package san models the system-area network fabric (Myrinet in the paper)
// as per-port occupancy: each node's NIC transmit engine is busy for a
// transfer's bandwidth-limited occupancy, so back-to-back transfers from
// one node queue behind each other.  It also carries the cost table and
// event counters the layers above share.  It knows nothing about
// registration, protocols or faults; package wire prices every transfer
// (latency, retries, traffic counters) and books its port here.
package san

import (
	"fmt"
	"sync/atomic"

	"cables/internal/sim"
	"cables/internal/stats"
)

// Fabric is the interconnect connecting all cluster nodes.
type Fabric struct {
	costs *sim.Costs
	ctr   *stats.Counters
	ports []port
}

// port models one NIC's transmit engine: it is busy until freeAt (virtual
// time), serializing back-to-back transfers at the link bandwidth.
type port struct {
	freeAt atomic.Int64
	_      [7]int64 // avoid false sharing between ports
}

// New creates a fabric with one NIC port per node.
func New(nodes int, costs *sim.Costs, ctr *stats.Counters) *Fabric {
	if nodes <= 0 {
		panic(fmt.Sprintf("san: invalid node count %d", nodes))
	}
	return &Fabric{costs: costs, ctr: ctr, ports: make([]port, nodes)}
}

// Nodes returns the number of nodes on the fabric.
func (f *Fabric) Nodes() int { return len(f.ports) }

// Costs exposes the cost table (layers above share it).
func (f *Fabric) Costs() *sim.Costs { return f.costs }

// Counters exposes the shared event counters.
func (f *Fabric) Counters() *stats.Counters { return f.ctr }

// Reserve books the src port for occ starting no earlier than now and
// returns the transmission start time.
func (f *Fabric) Reserve(src int, now, occ sim.Time) sim.Time {
	if src < 0 || src >= len(f.ports) {
		panic(fmt.Sprintf("san: node out of range (src=%d nodes=%d)", src, len(f.ports)))
	}
	p := &f.ports[src]
	for {
		free := sim.Time(p.freeAt.Load())
		start := sim.MaxTime(now, free)
		if p.freeAt.CompareAndSwap(int64(free), int64(start+occ)) {
			return start
		}
	}
}
