package stats

import "testing"

// TestSnapshotDelta pins per-key subtraction, including against a nil
// previous snapshot (the run-start window).
func TestSnapshotDelta(t *testing.T) {
	cur := Snapshot{"pageFaults": 10, "diffs": 4}
	prev := Snapshot{"pageFaults": 7}
	d := cur.Delta(prev)
	if d["pageFaults"] != 3 || d["diffs"] != 4 {
		t.Errorf("delta = %v", d)
	}
	if d0 := cur.Delta(nil); d0["pageFaults"] != 10 || d0["diffs"] != 4 {
		t.Errorf("delta vs nil = %v", d0)
	}
}

// TestCountersDelta drives the phase-window pattern: snapshot, count more,
// Delta against the snapshot gives only the new activity.
func TestCountersDelta(t *testing.T) {
	c := NewCounters(2)
	c.Add(0, EvPageFaults, 5)
	phase1 := c.Snapshot()
	c.Add(1, EvPageFaults, 2)
	c.Add(0, EvDiffsSent, 3)
	d := c.Delta(phase1)
	if d["pageFaults"] != 2 || d["diffs"] != 3 {
		t.Errorf("window = %v", d)
	}
	if d["barriers"] != 0 {
		t.Errorf("untouched counter leaked into window: %v", d)
	}
	// A fresh window from the new baseline is empty.
	if s := c.Delta(c.Snapshot()).String(); s != "" {
		t.Errorf("empty window renders %q", s)
	}
}

// TestEpochLogWindows pins the windowing semantics: marks difference
// consecutive snapshots in virtual-time order, the first window counts
// from the run start, and ties keep insertion order.
func TestEpochLogWindows(t *testing.T) {
	c := NewCounters(1)
	l := NewEpochLog(c)

	c.Add(0, EvPageFaults, 4)
	l.Mark("init", 100)
	c.Add(0, EvPageFaults, 6)
	c.Add(0, EvBarriers, 1)
	// Marked out of virtual-time order: Windows must sort by instant.
	l.Mark("t2", 300)
	l.Mark("t1", 200)

	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	ws := l.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	if ws[0].Label != "init" || ws[0].At != 100 || ws[0].Delta["pageFaults"] != 4 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].Label != "t1" || ws[1].At != 200 {
		t.Errorf("window 1 = %+v (virtual-time order violated)", ws[1])
	}
	// t1's snapshot was taken after t2's, so differencing in virtual-time
	// order puts all post-init activity in t2's window and none in t1's.
	if ws[2].Label != "t2" || ws[2].Delta["pageFaults"] != 0 {
		t.Errorf("window 2 = %+v", ws[2])
	}
	if got := ws[1].Delta["pageFaults"] + ws[2].Delta["pageFaults"]; got != 6 {
		t.Errorf("post-init faults split %d, want 6 total", got)
	}
	// Ties at one instant keep insertion order (stable sort).
	l2 := NewEpochLog(c)
	l2.Mark("a", 50)
	l2.Mark("b", 50)
	ws2 := l2.Windows()
	if ws2[0].Label != "a" || ws2[1].Label != "b" {
		t.Errorf("tie order = %s,%s, want a,b", ws2[0].Label, ws2[1].Label)
	}
}
