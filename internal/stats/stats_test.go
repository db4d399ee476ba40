package stats

import (
	"strings"
	"testing"

	"cables/internal/sim"
)

func TestCountersSnapshotAndString(t *testing.T) {
	c := NewCounters(4)
	c.Add(0, EvPageFaults, 2)
	c.Add(3, EvPageFaults, 1) // totals are cluster-wide
	c.Add(1, EvDiffsSent, 2)
	snap := c.Snapshot()
	if snap["pageFaults"] != 3 || snap["diffs"] != 2 || snap["barriers"] != 0 {
		t.Errorf("snapshot: %v", snap)
	}
	s := c.String()
	if !strings.Contains(s, "pageFaults=3") || !strings.Contains(s, "diffs=2") {
		t.Errorf("string: %s", s)
	}
	if strings.Contains(s, "barriers") {
		t.Error("zero counters should be omitted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Name", "Value")
	tab.AddRow("short", "1")
	tab.AddRow("a much longer name", "2", "dropped-extra-cell")
	tab.AddRow("partial")
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // header + rule + 3 rows
		t.Fatalf("lines: %d\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Errorf("header: %q", lines[0])
	}
	width := len(lines[0])
	for _, l := range lines[2:] {
		if len(l) > width+8 {
			t.Errorf("ragged row: %q", l)
		}
	}
	if !strings.Contains(s, "a much longer name  2") {
		t.Errorf("row content:\n%s", s)
	}
}

func TestOpStats(t *testing.T) {
	var s OpStats
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	s.Time(task, "op", func() { task.Charge(sim.CatLocal, 10*sim.Microsecond) })
	s.Time(task, "op", func() { task.Charge(sim.CatLocal, 20*sim.Microsecond) })
	s.Record("other", 5*sim.Microsecond)
	avg, n := s.Avg("op")
	if n != 2 || avg != 15*sim.Microsecond {
		t.Errorf("avg: %v x%d", avg, n)
	}
	if _, n := s.Avg("missing"); n != 0 {
		t.Error("missing op has count")
	}
	if ops := s.Ops(); len(ops) != 2 || ops[0] != "op" || ops[1] != "other" {
		t.Errorf("ops: %v", ops)
	}
	if str := s.String(); !strings.Contains(str, "op=15.0us(x2)") {
		t.Errorf("string: %s", str)
	}
}
