// Package stats collects event counters and formats the experiment tables.
// Every layer of a cell (VMMC, protocol, CableS, fault injection) bumps one
// plain counter array: the cell's tasks run one at a time in its single
// scheduler slot, which hands the counters from task to task.
//
// Call sites name a node and a typed Event; Event.String is the stable
// Snapshot key (docs/OBSERVABILITY.md lists every event and which layer
// emits it).  New events are appended to the enum so earlier events keep
// their numeric identities across versions.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Event identifies one system-wide event counter.
type Event uint32

// The counted events, by layer.
const (
	// Communication layer.
	EvMessagesSent Event = iota
	EvBytesSent
	EvFetches
	EvBytesFetched
	EvNotifications

	// SVM protocol.
	EvPageFaults       // all page faults taken
	EvRemotePageFaults // faults served by a remote home
	EvDiffsSent
	EvDiffBytes
	EvInvalidations
	EvWriteNotices

	// Synchronization.
	EvLockAcquires
	EvRemoteLockAcquires
	EvBarriers
	EvCondWaits
	EvCondSignals

	// CableS management.
	EvThreadsCreated
	EvNodesAttached
	EvSegMigrations
	EvOwnerDetects
	EvAdminRequests
	EvSharedAllocated // bytes of global shared memory allocated

	// Fault injection and recovery (internal/fault).  Appended after the
	// original enum so earlier events keep their numeric identities.
	EvFaultsInjected // total fault firings of any class
	EvSendRetries    // sends retried after a transient NIC failure
	EvFetchRetries   // remote reads retried after a transient failure
	EvNotifyLost     // notifications lost in flight and re-sent
	EvRegRecoveries  // NIC region deregister/re-register recovery cycles
	EvLockRehomes    // locks re-homed away from a detached node
	EvBarrierRehomes // barriers re-homed away from a detached node
	EvPageRehomes    // pages re-homed away from a detached node
	EvNodeDetaches   // nodes detached mid-run by a fault plan
	EvAttachDelays   // node attaches delayed by a fault plan

	// Wire plane (internal/wire).  Appended so earlier events keep their
	// numeric identities.
	EvWireOps        // operations issued through the wire plane
	EvPageMigrations // page homes moved through the wire plane (KindMigrate)

	// COW frame store (internal/memsys frame.go).  Appended so earlier
	// events keep their numeric identities.  Host-memory observability:
	// both events describe work the paper's system did eagerly (page
	// copies), so they carry no virtual-time charge of their own.
	EvCowUnshares // shared frames privatized by the first write of an interval

	// Coherence-protocol variants (internal/coherence).  Appended so
	// earlier events keep their numeric identities.
	EvDelegations // critical sections shipped to a lock's delegation server
	EvCommMerges  // batched commutative merge ops sent at a flush

	numEvents
)

// NumEvents is the number of distinct counted events.
const NumEvents = int(numEvents)

// eventKeys are the Snapshot map keys, indexed by Event.
var eventKeys = [NumEvents]string{
	"messages", "bytesSent", "fetches", "bytesFetched", "notifications",
	"pageFaults", "remoteFaults", "diffs", "diffBytes", "invalidations",
	"writeNotices",
	"lockAcquires", "remoteLocks", "barriers", "condWaits", "condSignals",
	"threadsCreated", "nodesAttached", "segMigrations", "ownerDetects",
	"adminRequests", "sharedBytes",
	"faultsInjected", "sendRetries", "fetchRetries", "notifyLost",
	"regRecoveries", "lockRehomes", "barrierRehomes", "pageRehomes",
	"nodeDetaches", "attachDelays",
	"wireOps", "pageMigrations",
	"cowUnshares",
	"delegations", "commMerges",
}

// String returns the Snapshot key of the event.
func (e Event) String() string {
	if int(e) >= NumEvents {
		return fmt.Sprintf("Event(%d)", uint32(e))
	}
	return eventKeys[e]
}

// Counters aggregates cluster-wide event counts for one cell.  Construct
// with NewCounters.
type Counters struct {
	v [NumEvents]int64
}

// NewCounters creates an empty counter set.  The counts are cluster-wide,
// so nodes, the cluster's node count, sizes nothing.
func NewCounters(nodes int) *Counters { return new(Counters) }

// Add accumulates d into event e.  node names the cluster node whose
// simulated work caused the event; the totals are cluster-wide, so it is
// not recorded.
func (c *Counters) Add(node int, e Event, d int64) { c.v[e] += d }

// Load returns the cluster-wide total for event e.
func (c *Counters) Load(e Event) int64 { return c.v[e] }

// Snapshot is one point-in-time reading of every counter, keyed by
// Event.String().  Snapshots subtract (Delta) to form counter windows.
type Snapshot map[string]int64

// Snapshot returns the counters as a name->value map, for reporting.
func (c *Counters) Snapshot() Snapshot {
	m := make(Snapshot, NumEvents)
	for e := Event(0); e < numEvents; e++ {
		m[eventKeys[e]] = c.Load(e)
	}
	return m
}

// Delta returns the counter window since prev: the current reading minus
// prev, per key.  A nil prev yields the current reading itself, so a
// phase loop can start from nothing.
func (c *Counters) Delta(prev Snapshot) Snapshot {
	return c.Snapshot().Delta(prev)
}

// Delta returns s - prev, per key (keys missing from prev count as zero).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for k, v := range s {
		d[k] = v - prev[k]
	}
	return d
}

// String lists the non-zero entries in sorted order.
func (s Snapshot) String() string {
	keys := make([]string, 0, len(s))
	for k, v := range s {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, s[k])
	}
	return strings.Join(parts, " ")
}

// String lists the non-zero counters in sorted order.
func (c *Counters) String() string {
	return c.Snapshot().String()
}

// Table is a minimal fixed-width text table writer used by the experiment
// harness to print rows in the shape of the paper's tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
