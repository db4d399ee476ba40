// Package coherence defines the pluggable coherence-policy seam of the
// simulator and its built-in implementations.
//
// The GeNIMA engine (internal/genima) owns the *mechanism* of home-based
// shared virtual memory — twins, diffs, write notices, the interval log,
// invalidation — and consults a Protocol for two *policy* decisions: which
// diffs may be batched into commutative merges (at each flush), and
// whether a contended critical section should execute at the lock
// holder's node instead of migrating pages to the waiter (at each
// contended acquire).  Three protocols ship:
//
//   - genima: the baseline home-based write-invalidate protocol of the
//     paper.  It declines both decisions, so the engine behaves (and
//     costs) exactly as it did before the seam existed.
//   - commutative: pages observed to be write-shared (diffed to the same
//     home by more than one node) are treated as reduction targets.
//     Their diffs still reach the home byte-for-byte, but each flush
//     carries them in one `wire.merge` op per home instead of one
//     `wire.write` per page — the buffered-merge idea of the parallel
//     commutative-updates line of work.
//   - delegate: the first contended Acquire on a lock picks the current
//     holder's node as the lock's sticky delegation server; subsequent
//     contended critical sections ship a descriptor there (`wire.delreq`)
//     and execute against the server's memory, turning page ping-pong
//     into local hand-offs at the server (`wire.deldone` on return).
//
// Selection is by name, per cell: bench.CellOptions.Protocol (set by the
// -protocol flag of cmd/cablesim and by the farm spec's protocol field)
// names the policy, and the empty name selects genima.
package coherence

import (
	"fmt"
	"sort"

	"cables/internal/memsys"
)

// Protocol is the policy seam consulted by the GeNIMA engine.  Its methods
// are called from a cell's simulated threads, which run one at a time in the
// cell's scheduler slot, so an instance needs no lock of its own.  Node
// arguments are always the task's *memory* node (sim.Task.MemNode), so a
// delegated critical section is observed at its server, not its origin.
type Protocol interface {
	// Name returns the protocol's registry name (one of Names).
	Name() string

	// Merge reports whether the engine should run a merge lane during
	// Flush (allocate the per-home merge batch and honor MergeDiff
	// verdicts).  Protocols that never merge return false so the genima
	// fast path stays allocation-free.
	Merge() bool

	// MergeDiff is consulted once per outbound diff (node flushing pid to
	// home, diffBytes of payload).  Returning true routes the diff into
	// the flush's merge batch — one wire op per home — instead of a
	// per-page remote write.  The verdict is only honored when Merge()
	// is true and the flush is running a merge lane.
	MergeDiff(node int, pid memsys.PageID, home, diffBytes int) bool

	// LockAcquire is consulted when an Acquire finds the lock held.
	// holderNode is the node the current holder is executing on, and
	// waiterNode the contender's home node.  A non-negative return is
	// the delegation server the waiter's critical section should execute
	// on; -1 leaves the acquire on the normal grant path.
	LockAcquire(lockID, holderNode, waiterNode int) int
}

// Registry names, in the order of protocolNames.
const (
	ProtoGenima      = "genima"
	ProtoCommutative = "commutative"
	ProtoDelegate    = "delegate"
)

// protocolNames lists every selectable protocol.  cmd/doccheck reads it
// through Names and cross-checks DESIGN.md / EXPERIMENTS.md, so a new
// protocol that is not documented fails `make docs`.
var protocolNames = []string{ProtoGenima, ProtoCommutative, ProtoDelegate}

// Names returns the selectable protocol names (copy; callers may sort).
func Names() []string {
	out := make([]string, len(protocolNames))
	copy(out, protocolNames)
	return out
}

// Valid reports whether name selects a known protocol.
func Valid(name string) bool {
	for _, n := range protocolNames {
		if n == name {
			return true
		}
	}
	return false
}

// New builds a fresh protocol instance by name; the empty string selects
// genima, the paper's protocol.  Instances carry per-run state
// (write-sharing observations, delegation servers) and must not be shared
// across runs.
func New(name string) (Protocol, error) {
	switch name {
	case "", ProtoGenima:
		return genimaProtocol{}, nil
	case ProtoCommutative:
		return newCommutative(), nil
	case ProtoDelegate:
		return newDelegate(), nil
	}
	return nil, fmt.Errorf("unknown protocol %q (have %v)", name, protocolNames)
}

// MustNew is New for known-good names (panics otherwise).
func MustNew(name string) Protocol {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// genimaProtocol is the baseline: it declines every decision, so the
// engine runs the paper's GeNIMA protocol.  The zero-size
// struct keeps the per-diff MergeDiff consultation a trivial interface
// call with no state access (TestGenimaDispatchAllocFree keeps it
// allocation-free; bench.TestHostCostBudgets holds it at <=1% of a flush).
type genimaProtocol struct{}

func (genimaProtocol) Name() string                                { return ProtoGenima }
func (genimaProtocol) Merge() bool                                 { return false }
func (genimaProtocol) MergeDiff(int, memsys.PageID, int, int) bool { return false }
func (genimaProtocol) LockAcquire(lockID, holder, waiter int) int  { return -1 }

// commutative detects write-shared pages at runtime: the second distinct
// node that diffs a page marks it a reduction target, and every later
// diff of that page rides the flush's merge batch.  Detection state is a
// plain map; the diff kernel (memsys.DiffPage over 4 KiB)
// dominates the per-diff cost by orders of magnitude.
type commutative struct {
	writer map[memsys.PageID]int32 // last diffing node + 1 (0 = none yet)
	shared map[memsys.PageID]bool  // observed multi-writer pages
}

func newCommutative() *commutative {
	return &commutative{
		writer: make(map[memsys.PageID]int32),
		shared: make(map[memsys.PageID]bool),
	}
}

func (c *commutative) Name() string { return ProtoCommutative }
func (c *commutative) Merge() bool  { return true }

func (c *commutative) MergeDiff(node int, pid memsys.PageID, home, diffBytes int) bool {
	if w := c.writer[pid]; w != 0 && w != int32(node)+1 {
		c.shared[pid] = true
	}
	c.writer[pid] = int32(node) + 1
	return c.shared[pid]
}

func (c *commutative) LockAcquire(lockID, holder, waiter int) int { return -1 }

// SharedPages returns the pages observed as write-shared so far, sorted
// (tests and diagnostics).
func (c *commutative) SharedPages() []memsys.PageID {
	out := make([]memsys.PageID, 0, len(c.shared))
	for pid := range c.shared {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// delegate assigns each lock a sticky delegation server: the node the
// holder was executing on at the lock's first contended acquire.  Every
// later contended critical section on that lock executes at the server,
// so the lock's data pages stop ping-ponging and grant hand-offs between
// queued waiters become server-local.
type delegate struct {
	server map[int]int // lock id -> sticky server node
}

func newDelegate() *delegate {
	return &delegate{server: make(map[int]int)}
}

func (d *delegate) Name() string { return ProtoDelegate }
func (d *delegate) Merge() bool  { return false }

func (d *delegate) MergeDiff(int, memsys.PageID, int, int) bool { return false }

func (d *delegate) LockAcquire(lockID, holderNode, waiterNode int) int {
	if srv, ok := d.server[lockID]; ok {
		return srv
	}
	if holderNode < 0 {
		return -1
	}
	d.server[lockID] = holderNode
	return holderNode
}

// ServerOf returns the sticky server chosen for a lock, or -1 if the
// lock has never been contended (tests and diagnostics).
func (d *delegate) ServerOf(lockID int) int {
	if srv, ok := d.server[lockID]; ok {
		return srv
	}
	return -1
}
