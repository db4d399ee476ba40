// Package san models the system-area network fabric (Myrinet in the paper):
// point-to-point message latencies, per-NIC occupancy (bandwidth and
// contention), and traffic accounting.  It knows nothing about registration
// or protocols; package vmmc layers those on top.
//
// An optional fault injector (SetFault, see internal/fault) makes sends and
// fetches suffer deterministic transient failures: each failed attempt costs
// the sender a full transfer timeout plus exponential backoff before the
// retry, bounded by fault.MaxSendRetries — faults stretch virtual time but
// never lose data.
package san

import (
	"fmt"
	"sync/atomic"

	"cables/internal/fault"
	"cables/internal/sim"
	"cables/internal/stats"
)

// Fabric is the interconnect connecting all cluster nodes.
type Fabric struct {
	costs *sim.Costs
	ctr   *stats.Counters
	inj   *fault.Injector // nil = no fault injection
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

// SetFault installs a fault injector; sends and fetches then suffer the
// plan's transient failures (each failed attempt costs a full transfer
// timeout plus exponential backoff before the retry).  nil disables
// injection.
func (f *Fabric) SetFault(inj *fault.Injector) { f.inj = inj }

// Nodes returns the number of nodes on the fabric.
func (f *Fabric) Nodes() int { return len(f.ports) }

// Costs exposes the cost table (layers above share it).
func (f *Fabric) Costs() *sim.Costs { return f.costs }

// Counters exposes the shared event counters.
func (f *Fabric) Counters() *stats.Counters { return f.ctr }

// Reserve books the src port for occ starting no earlier than now and
// returns the transmission start time.  The wire plane uses it to make
// control traffic (lock grants, barrier arrivals) queue behind data
// transfers under -contended-sync; data transfers reserve implicitly via
// Send/Fetch.
func (f *Fabric) Reserve(src int, now, occ sim.Time) sim.Time {
	if src < 0 || src >= len(f.ports) {
		panic(fmt.Sprintf("san: node out of range (src=%d nodes=%d)", src, len(f.ports)))
	}
	return f.reserve(src, now, occ)
}

// reserve books the src port for occ starting no earlier than now and
// returns the transmission start time.
func (f *Fabric) reserve(src int, now, occ sim.Time) sim.Time {
	p := &f.ports[src]
	for {
		free := sim.Time(p.freeAt.Load())
		start := sim.MaxTime(now, free)
		if p.freeAt.CompareAndSwap(int64(free), int64(start+occ)) {
			return start
		}
	}
}

// Send models a one-way transfer of size payload bytes from src to dst and
// returns the total virtual duration experienced by the sender's thread
// (queueing for the NIC + end-to-end latency).
func (f *Fabric) Send(t *sim.Task, src, dst, size int) sim.Time {
	f.checkNodes(src, dst)
	now := t.Now()
	// Each transiently failed attempt costs a full transfer timeout plus
	// backoff before the wire is tried again; past MaxSendRetries the
	// transfer goes through regardless (faults delay, they never lose data).
	penalty := f.inj.Retry(fault.KindSend, src, dst, now, f.costs.SendTime(size))
	start := f.reserve(src, now, f.costs.Occupancy(size))
	d := (start - now) + penalty + f.costs.SendTime(size)
	f.ctr.Add(src, stats.EvMessagesSent, 1)
	f.ctr.Add(src, stats.EvBytesSent, int64(size))
	return d
}

// Fetch models a direct remote read (round trip) of size bytes from src's
// point of view, pulling from dst.  The remote side's DMA engine serves the
// read without remote-processor intervention, so only the requester's NIC is
// reserved (for the returning payload).
func (f *Fabric) Fetch(t *sim.Task, src, dst, size int) sim.Time {
	f.checkNodes(src, dst)
	now := t.Now()
	penalty := f.inj.Retry(fault.KindFetch, src, dst, now, f.costs.FetchTime(size))
	start := f.reserve(src, now, f.costs.Occupancy(size))
	d := (start - now) + penalty + f.costs.FetchTime(size)
	f.ctr.Add(src, stats.EvFetches, 1)
	f.ctr.Add(src, stats.EvBytesFetched, int64(size))
	return d
}

func (f *Fabric) checkNodes(src, dst int) {
	if src < 0 || src >= len(f.ports) || dst < 0 || dst >= len(f.ports) {
		panic(fmt.Sprintf("san: node out of range (src=%d dst=%d nodes=%d)",
			src, dst, len(f.ports)))
	}
}
