package cables

import (
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

// Migration policy.  The paper implements the *mechanisms* for home-page
// migration but "does not yet provide a policy" (§2.1.3, Table 2).  This
// file supplies the natural extension the paper points at: count
// remotely-served faults per map unit and, at an application-chosen
// quiescent point, re-home the units that one node keeps missing on.

// EnableMigrationTracking starts counting remote faults per (map unit,
// faulting node); required before MigrateHotUnits.
func (m *MemManager) EnableMigrationTracking() {
	if m.faultCount != nil {
		return
	}
	units := len(m.unitHome)
	nodes := m.rt.cfg.MaxNodes
	m.faultCount = make([][]int64, units)
	for u := range m.faultCount {
		m.faultCount[u] = make([]int64, nodes)
	}
	m.rt.proto.OnRemoteFault = func(node int, pid memsys.PageID) {
		m.faultCount[m.UnitOf(pid)][node]++
	}
}

// MigrateHotUnits scans the fault counters and re-homes every map unit on
// which a single remote node has taken at least threshold faults since the
// last scan.  The caller must be at a quiescent point for the affected data
// (e.g. a barrier between phases) — the same contract the paper's migration
// mechanism carries.  Returns the number of units migrated.
func (m *MemManager) MigrateHotUnits(t *sim.Task, threshold int64) int {
	if m.faultCount == nil || threshold <= 0 {
		return 0
	}
	migrated := 0
	unitPages := memsys.PageID(1) << m.unitShift
	for u := range m.faultCount {
		home := m.unitHome[u]
		if home < 0 {
			continue
		}
		best, bestN := int64(0), -1
		for n, v := range m.faultCount[u] {
			m.faultCount[u][n] = 0
			if v > best {
				best, bestN = v, n
			}
		}
		if bestN < 0 || int32(bestN) == home || best < threshold {
			continue
		}
		// Re-home every placed page of the unit to the hot node.
		first := memsys.PageID(u) << m.unitShift
		for pid := first; pid < first+unitPages && int(pid) < m.sp.NumPages(); pid++ {
			if m.sp.Home(pid) == int(home) {
				m.MigratePage(t, pid, bestN)
			}
		}
		m.unitHome[u] = int32(bestN)
		migrated++
		m.rt.cl.Ctr.Add(t.NodeID, stats.EvSegMigrations, 1)
	}
	return migrated
}
