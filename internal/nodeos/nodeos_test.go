package nodeos

import (
	"testing"

	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

func TestClusterShape(t *testing.T) {
	cl := NewCluster(Config{NumNodes: 4, ProcsPerNode: 2})
	if cl.NumNodes() != 4 || cl.Nodes[3].Processors != 2 {
		t.Errorf("shape: %d nodes, %d procs on the last", cl.NumNodes(), cl.Nodes[3].Processors)
	}
	// The fabric spans every node: a write to the last one crosses the wire.
	task := cl.NewTask(0, 0)
	cl.Wire.Do(task, wire.Op{Kind: wire.KindWrite, Dst: cl.NumNodes() - 1, Size: 8})
	if cl.Ctr.Load(stats.EvMessagesSent) != 1 {
		t.Error("fabric does not reach the last node")
	}
}

func TestClusterDefaults(t *testing.T) {
	cl := NewCluster(Config{NumNodes: 2})
	if cl.Nodes[0].Processors != 2 {
		t.Errorf("default SMP width: %d", cl.Nodes[0].Processors)
	}
	if cl.Costs == nil || cl.VMMC == nil {
		t.Fatal("defaults missing")
	}
	if cl.Costs.MapGranularity != 64<<10 {
		t.Errorf("default granularity: %d", cl.Costs.MapGranularity)
	}
}

func TestInvalidClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewCluster(Config{NumNodes: 0})
}

// TestLoadFactorTimeSharing: a node's runnable count dilates its tasks'
// computation only once it exceeds the processor count.
func TestLoadFactorTimeSharing(t *testing.T) {
	cl := NewCluster(Config{NumNodes: 1, ProcsPerNode: 2})
	n := cl.Nodes[0]
	task := cl.NewTask(0, 0)
	charge := func() sim.Time {
		before := task.Now()
		task.Compute(10 * sim.Microsecond)
		return task.Now() - before
	}
	if got := charge(); got != 10*sim.Microsecond {
		t.Errorf("idle node: %v", got)
	}
	for i := 0; i < 2; i++ {
		n.ThreadStarted()
	}
	if got := charge(); got != 10*sim.Microsecond {
		t.Errorf("full-but-not-over node: %v", got)
	}
	n.ThreadStarted() // 3 runnable on 2 processors
	if got := charge(); got != 15*sim.Microsecond {
		t.Errorf("oversubscribed node: %v", got)
	}
	n.ThreadStopped()
	n.ThreadStopped()
	n.ThreadStopped()
	if n.Runnable() != 0 {
		t.Errorf("runnable: %d", n.Runnable())
	}
}

func TestNewTaskWiring(t *testing.T) {
	cl := NewCluster(Config{NumNodes: 2, ProcsPerNode: 2})
	cl.Nodes[1].ThreadStarted()
	cl.Nodes[1].ThreadStarted()
	cl.Nodes[1].ThreadStarted()
	task := cl.NewTask(1, 5*sim.Microsecond)
	if task.NodeID != 1 || task.Now() != 5*sim.Microsecond {
		t.Errorf("task wiring: node=%d now=%v", task.NodeID, task.Now())
	}
	task.Compute(10 * sim.Microsecond)
	if got := task.Now() - 5*sim.Microsecond; got != 15*sim.Microsecond {
		t.Errorf("load-dilated compute on task: %v", got)
	}
	t2 := cl.NewTask(0, 0)
	if t2.ID == task.ID {
		t.Error("task ids not unique")
	}
}

func TestOSChargeHelpers(t *testing.T) {
	cl := NewCluster(Config{NumNodes: 1, ProcsPerNode: 2})
	task := cl.NewTask(0, 0)
	cl.Nodes[0].ChargeMapSegment(task)
	b := task.Snapshot()
	if want := cl.Costs.OSMapSegment; b[sim.CatLocalOS] != want {
		t.Errorf("OS charges: %v want %v", b[sim.CatLocalOS], want)
	}
}
