// Package vmmc models the NIC side of the Virtual Memory Mapped
// Communication layer the paper builds on: memory registration with
// hardware resource limits (number of regions, total registered bytes,
// total pinned bytes) — critical for CableS.  GeNIMA and CableS differ in
// how many NIC resources they consume; those differences produce the
// paper's Table 1/2 results and the OCEAN-at-32-processors registration
// failure.  VMMC's data operations (remote write, fetch, notify) are
// priced by package wire, whose Plane.Do is the one door for all traffic.
//
// Under a fault plan (SetFault, see internal/fault) a nicmem rule applies
// registration-memory pressure to the time-aware GrowAt: the effective
// registered-byte limit shrinks for the rule's window, surfacing mid-run
// exhaustion that GrowRecover rides out with deregister/re-register
// recovery cycles.  Construction-time Register and Grow see only the
// hardware limits.
package vmmc

import (
	"errors"
	"fmt"

	"cables/internal/fault"
	"cables/internal/san"
	"cables/internal/sim"
)

// Registration failure modes (SAN limitations, paper §2.1.1).
var (
	// ErrRegionLimit means the NIC cannot hold another exported region.
	ErrRegionLimit = errors.New("vmmc: NIC region table full")
	// ErrRegisteredLimit means the total registered memory limit is exceeded.
	ErrRegisteredLimit = errors.New("vmmc: NIC registered-memory limit exceeded")
	// ErrPinnedLimit means the OS cannot pin more physical memory.
	ErrPinnedLimit = errors.New("vmmc: pinned-memory limit exceeded")
)

// Limits describes a NIC's (and host OS's) registration resources.
type Limits struct {
	// MaxRegions is the number of region entries the NIC can hold.
	MaxRegions int
	// MaxRegisteredBytes is the total memory mappable on the NIC.
	MaxRegisteredBytes int64
	// MaxPinnedBytes is the OS limit on non-pageable memory.
	MaxPinnedBytes int64
}

// DefaultLimits returns limits calibrated so the base SVM system reproduces
// the paper's registration failure point (see DESIGN.md §4).
func DefaultLimits() Limits {
	return Limits{
		MaxRegions:         512,
		MaxRegisteredBytes: 256 << 20,
		MaxPinnedBytes:     256 << 20,
	}
}

// RegionID names one registered region on a NIC.
type RegionID int

// Region is one NIC registration entry.
type Region struct {
	ID     RegionID
	Label  string
	Bytes  int64
	Pinned bool
	// Dynamic regions are managed by the communication layer on demand
	// (UTLB-style, refs [9,4] in the paper); they bypass the static limits
	// but cost more per first access.
	Dynamic bool
}

// NIC is the per-node registration state.  Only the cell's tasks reach it,
// one at a time in the scheduler slot, so it needs no lock of its own.
type NIC struct {
	node   int
	limits Limits
	inj    *fault.Injector // nil = no registration-memory pressure

	regions  map[RegionID]*Region
	nextID   RegionID
	static   int // static entries in regions; a region is never removed
	regBytes int64
	pinBytes int64
}

// effRegLimit returns the registered-byte limit visible at virtual instant
// now: the hardware limit minus any registration-memory pressure a fault
// plan applies to this node during that window.
func (n *NIC) effRegLimit(now sim.Time) int64 {
	lim := n.limits.MaxRegisteredBytes
	if n.inj != nil {
		lim -= n.inj.RegReserve(n.node, now)
	}
	return lim
}

// noPressure is the GrowAt instant meaning "ignore any fault plan's
// registration-memory pressure" (virtual time is never negative).
const noPressure = sim.Time(-1)

// Register enters a region of the given size into the NIC's tables.  Static
// registrations (dynamic=false) consume the limited resources and may fail;
// dynamic registrations always succeed but are tracked for reporting.
// Registration happens at construction time, so fault-plan pressure does
// not apply: only the hardware limits do.
func (n *NIC) Register(label string, bytes int64, pinned, dynamic bool) (RegionID, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("vmmc: negative region size %d", bytes)
	}
	if !dynamic {
		if n.static+1 > n.limits.MaxRegions {
			return 0, fmt.Errorf("node %d registering %q (%d regions in use): %w",
				n.node, label, n.static, ErrRegionLimit)
		}
		if lim := n.limits.MaxRegisteredBytes; n.regBytes+bytes > lim {
			return 0, fmt.Errorf("node %d registering %q (%d+%d > %d bytes): %w",
				n.node, label, n.regBytes, bytes, lim, ErrRegisteredLimit)
		}
		if pinned && n.pinBytes+bytes > n.limits.MaxPinnedBytes {
			return 0, fmt.Errorf("node %d pinning %q (%d+%d > %d bytes): %w",
				n.node, label, n.pinBytes, bytes, n.limits.MaxPinnedBytes,
				ErrPinnedLimit)
		}
		n.static++
		n.regBytes += bytes
		if pinned {
			n.pinBytes += bytes
		}
	}
	n.nextID++
	id := n.nextID
	n.regions[id] = &Region{ID: id, Label: label, Bytes: bytes, Pinned: pinned, Dynamic: dynamic}
	return id, nil
}

// Grow extends an existing static region in place, ignoring any fault
// plan's registration-memory pressure (CableS's last-resort grow of the
// master's home pages).
func (n *NIC) Grow(id RegionID, extra int64) error {
	return n.GrowAt(id, extra, noPressure)
}

// GrowAt is Grow evaluated at virtual instant now; fault-plan registration
// pressure active at that instant shrinks the effective limit, which is how
// NIC memory exhaustion surfaces mid-run (recover with System.GrowRecover).
func (n *NIC) GrowAt(id RegionID, extra int64, now sim.Time) error {
	if extra < 0 {
		return fmt.Errorf("vmmc: negative grow %d", extra)
	}
	r, ok := n.regions[id]
	if !ok {
		return fmt.Errorf("vmmc: grow of unknown region %d on node %d", id, n.node)
	}
	if !r.Dynamic {
		if lim := n.effRegLimit(now); n.regBytes+extra > lim {
			return fmt.Errorf("node %d growing %q: %w", n.node, r.Label, ErrRegisteredLimit)
		}
		if r.Pinned && n.pinBytes+extra > n.limits.MaxPinnedBytes {
			return fmt.Errorf("node %d growing %q: %w", n.node, r.Label, ErrPinnedLimit)
		}
		n.regBytes += extra
		if r.Pinned {
			n.pinBytes += extra
		}
	}
	r.Bytes += extra
	return nil
}

// System is the cluster-wide VMMC instance: one NIC per node.
type System struct {
	costs *sim.Costs
	nics  []*NIC
	inj   *fault.Injector // nil = no registration-memory pressure
}

// SetFault installs a fault injector on the system and all its NICs: NIC
// registration-memory pressure then applies to time-aware registration
// calls.  nil disables it.
func (s *System) SetFault(inj *fault.Injector) {
	s.inj = inj
	for _, n := range s.nics {
		n.inj = inj
	}
}

// NewSystem builds a VMMC system over the fabric with uniform NIC limits.
func NewSystem(fab *san.Fabric, limits Limits) *System {
	s := &System{costs: fab.Costs(), nics: make([]*NIC, fab.Nodes())}
	for i := range s.nics {
		s.nics[i] = &NIC{node: i, limits: limits, regions: make(map[RegionID]*Region)}
	}
	return s
}

// NIC returns node's NIC.
func (s *System) NIC(node int) *NIC { return s.nics[node] }

// GrowRecover grows region id on node's NIC on behalf of thread t, riding
// out transient NIC registration-memory exhaustion (a fault plan's nicmem
// pressure): each recovery attempt backs off exponentially, then models a
// deregister/re-register cycle — two OS mapping operations — before
// retrying the grow.  The region keeps its identity across the cycle.
// After MaxRegRetries the exhaustion error is returned and the caller falls
// back (CableS homes the pages on the master instead, or the master takes
// its pressure-free last grow); giving up counts as an injected fault on
// node, so the cell reads as degraded.
func (s *System) GrowRecover(t *sim.Task, node int, id RegionID, extra int64) error {
	n := s.nics[node]
	err := n.GrowAt(id, extra, t.Now())
	if err == nil || !errors.Is(err, ErrRegisteredLimit) || s.inj == nil {
		return err
	}
	for attempt := 0; attempt < fault.MaxRegRetries; attempt++ {
		t.Charge(sim.CatWait, fault.Backoff(attempt))
		t.Charge(sim.CatLocalOS, 2*s.costs.OSMapSegment)
		if err = n.GrowAt(id, extra, t.Now()); err == nil {
			s.inj.NoteRegRecovery(node)
			return nil
		}
		if !errors.Is(err, ErrRegisteredLimit) {
			return err
		}
	}
	s.inj.NoteRehome(node)
	return err
}
