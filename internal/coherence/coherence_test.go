package coherence

import (
	"testing"

	"cables/internal/memsys"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 3 || names[0] != ProtoGenima {
		t.Fatalf("Names() = %v, want genima first of three", names)
	}
	names[0] = "clobbered"
	if Names()[0] != ProtoGenima {
		t.Fatal("Names() returned the internal slice, not a copy")
	}
	for _, n := range Names() {
		if !Valid(n) {
			t.Errorf("Valid(%q) = false for a registered name", n)
		}
		p, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("New(%q).Name() = %q", n, p.Name())
		}
	}
	if Valid("treadmarks") {
		t.Error("Valid accepted an unregistered name")
	}
	if _, err := New("treadmarks"); err == nil {
		t.Error("New accepted an unregistered name")
	}
}

func TestDefaultSelection(t *testing.T) {
	old := DefaultName()
	defer SetDefault(old)

	if err := SetDefault(ProtoDelegate); err != nil {
		t.Fatal(err)
	}
	if DefaultName() != ProtoDelegate {
		t.Fatalf("DefaultName() = %q after SetDefault(delegate)", DefaultName())
	}
	// Empty selects the default; empty SetDefault keeps it.
	if err := SetDefault(""); err != nil || DefaultName() != ProtoDelegate {
		t.Fatalf("SetDefault(\"\") changed the default to %q (err %v)", DefaultName(), err)
	}
	p, err := New("")
	if err != nil || p.Name() != ProtoDelegate {
		t.Fatalf("New(\"\") = %v, %v; want the process default", p, err)
	}
	if err := SetDefault("treadmarks"); err == nil {
		t.Fatal("SetDefault accepted an unregistered name")
	}
}

// TestGenimaIsInert pins the baseline contract: every hook declines, so
// the engine's behavior cannot depend on the seam being consulted.
func TestGenimaIsInert(t *testing.T) {
	p := MustNew(ProtoGenima)
	if p.Merge() {
		t.Error("genima runs a merge lane")
	}
	if p.MergeDiff(1, 2, 0, 128) {
		t.Error("genima merged a diff")
	}
	if srv := p.LockAcquire(1, 0, 1); srv != -1 {
		t.Errorf("genima delegated a lock to node %d", srv)
	}
}

// TestGenimaDispatchAllocFree: the consultations one 8-diff flush makes
// through the interface on the default protocol — the Merge mode check
// plus one MergeDiff per diff — must not allocate.
func TestGenimaDispatchAllocFree(t *testing.T) {
	p := MustNew(ProtoGenima)
	if n := testing.AllocsPerRun(1000, func() {
		p.Merge()
		for pid := memsys.PageID(0); pid < 8; pid++ {
			p.MergeDiff(1, pid, 0, 128)
		}
	}); n != 0 {
		t.Errorf("genima dispatch allocates %.1f times per flush, want 0", n)
	}
}

// TestCommutativeSharingDetection: a page becomes a reduction target at
// the second distinct writer and stays one; single-writer pages never do.
func TestCommutativeSharingDetection(t *testing.T) {
	c := MustNew(ProtoCommutative).(*commutative)
	if c.MergeDiff(0, 7, 2, 64) {
		t.Error("first writer marked page 7 shared")
	}
	if c.MergeDiff(0, 7, 2, 64) {
		t.Error("repeated same-writer diffs marked page 7 shared")
	}
	if !c.MergeDiff(1, 7, 2, 64) {
		t.Error("second distinct writer did not mark page 7 shared")
	}
	if !c.MergeDiff(0, 7, 2, 64) {
		t.Error("page 7 lost its reduction-target status")
	}
	if c.MergeDiff(3, 9, 2, 64) {
		t.Error("single-writer page 9 marked shared")
	}
	if got := c.SharedPages(); len(got) != 1 || got[0] != memsys.PageID(7) {
		t.Errorf("SharedPages() = %v, want [7]", got)
	}
}

// TestDelegateStickyServer: the first contended acquire fixes the server
// at the holder's node; later acquires reuse it regardless of holder.
func TestDelegateStickyServer(t *testing.T) {
	d := MustNew(ProtoDelegate).(*delegate)
	if srv := d.ServerOf(5); srv != -1 {
		t.Fatalf("uncontended lock has server %d", srv)
	}
	if srv := d.LockAcquire(5, -1, 2); srv != -1 {
		t.Fatalf("unknown holder delegated to node %d", srv)
	}
	if srv := d.LockAcquire(5, 3, 2); srv != 3 {
		t.Fatalf("first contended acquire chose server %d, want holder node 3", srv)
	}
	if srv := d.LockAcquire(5, 1, 0); srv != 3 {
		t.Fatalf("server moved to %d, want sticky 3", srv)
	}
	if srv := d.ServerOf(5); srv != 3 {
		t.Fatalf("ServerOf(5) = %d, want 3", srv)
	}
	// Independent locks get independent servers.
	if srv := d.LockAcquire(6, 1, 0); srv != 1 {
		t.Fatalf("lock 6 server %d, want 1", srv)
	}
}

// TestFreshInstancesPerRun: New must not share mutable state between
// instances — a run's sharing observations cannot leak into the next.
func TestFreshInstancesPerRun(t *testing.T) {
	a := MustNew(ProtoCommutative).(*commutative)
	a.MergeDiff(0, 7, 2, 64)
	a.MergeDiff(1, 7, 2, 64)
	b := MustNew(ProtoCommutative).(*commutative)
	if b.MergeDiff(2, 7, 2, 64) {
		t.Error("a fresh commutative instance inherited sharing state")
	}
	x := MustNew(ProtoDelegate).(*delegate)
	x.LockAcquire(5, 3, 2)
	if srv := MustNew(ProtoDelegate).(*delegate).ServerOf(5); srv != -1 {
		t.Errorf("a fresh delegate instance inherited server %d", srv)
	}
}
