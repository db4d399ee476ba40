package vmmc

import (
	"errors"
	"testing"

	"cables/internal/fault"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
)

// newFaultSys builds a system with an installed injector and returns it
// with the injector's counters, for registration-pressure tests.
func newFaultSys(limits Limits, plan string, seed uint64) (*System, *stats.Counters) {
	ctr := stats.NewCounters(4)
	fab := san.New(4, sim.DefaultCosts(), ctr)
	s := NewSystem(fab, limits)
	inj := fault.New(fault.MustParsePlan(plan), seed)
	inj.BindCounters(ctr)
	s.SetFault(inj)
	return s, ctr
}

// TestNICMemPressureShrinksLimit checks that a nicmem rule shrinks the
// effective registered-byte limit only for time-aware grows inside the rule
// window; construction-time registration (Register/Grow) never sees it.
func TestNICMemPressureShrinksLimit(t *testing.T) {
	s, _ := newFaultSys(
		Limits{MaxRegions: 8, MaxRegisteredBytes: 100 << 20, MaxPinnedBytes: 100 << 20},
		"nicmem:node=1,reserve=64M,from=1ms,to=10ms", 1)
	nic := s.NIC(1)
	// Construction-time path ignores pressure: 40M register although only
	// 36M are left inside the window; runtimes register base regions here.
	id, err := nic.Register("home", 40<<20, true, false)
	if err != nil {
		t.Fatalf("construction-time register saw fault pressure: %v", err)
	}
	// Time-aware path: inside the window only 36M are left.
	if err := nic.GrowAt(id, 20<<20, 5*sim.Millisecond); !errors.Is(err, ErrRegisteredLimit) {
		t.Errorf("pressured grow: %v, want ErrRegisteredLimit", err)
	}
	if err := nic.GrowAt(id, 20<<20, 20*sim.Millisecond); err != nil {
		t.Errorf("grow after window: %v", err)
	}
	// An unpressured node is unaffected inside the window.
	other := s.NIC(2)
	id2, err := other.Register("home", 40<<20, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.GrowAt(id2, 20<<20, 5*sim.Millisecond); err != nil {
		t.Errorf("other node pressured: %v", err)
	}
}

// TestGrowRecoverRidesOutPressure drives the recovery loop: a grow that hits
// transient NIC registration exhaustion backs off, models deregister/
// re-register cycles, and succeeds once the pressure window closes — all in
// virtual time, with the recovery recorded in the counters.
func TestGrowRecoverRidesOutPressure(t *testing.T) {
	s, ctr := newFaultSys(
		Limits{MaxRegions: 8, MaxRegisteredBytes: 64 << 20, MaxPinnedBytes: 64 << 20},
		"nicmem:node=0,reserve=32M,from=0ms,to=2ms", 1)
	nic := s.NIC(0)
	id, err := nic.Register("home", 48<<20, true, false)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	// At t=0 only 32M are free and 48M are registered: growing by 8M trips
	// the pressured limit (48+8 > 64-32) until the window closes at 2ms.
	if err := s.GrowRecover(task, 0, id, 8<<20); err != nil {
		t.Fatalf("GrowRecover: %v", err)
	}
	if task.Now() < 2*sim.Millisecond {
		t.Errorf("recovery finished at %v, before the pressure window closed", task.Now())
	}
	if got := ctr.Load(stats.EvRegRecoveries); got != 1 {
		t.Errorf("regRecoveries: %d, want 1", got)
	}
	if ctr.Load(stats.EvFaultsInjected) == 0 {
		t.Error("recovery not tallied as an injection")
	}
	if reg := nic.regBytes; reg != 56<<20 {
		t.Errorf("registered bytes after grow: %d, want 56M", reg)
	}
}

// TestGrowRecoverGivesUpUnderPermanentPressure checks the bounded-retry
// contract: open-ended pressure exhausts MaxRegRetries and surfaces
// ErrRegisteredLimit so the caller can fall back to master homing.
func TestGrowRecoverGivesUpUnderPermanentPressure(t *testing.T) {
	s, ctr := newFaultSys(
		Limits{MaxRegions: 8, MaxRegisteredBytes: 64 << 20, MaxPinnedBytes: 64 << 20},
		"nicmem:node=0,reserve=32M", 1)
	nic := s.NIC(0)
	id, err := nic.Register("home", 48<<20, true, false)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	if err := s.GrowRecover(task, 0, id, 8<<20); !errors.Is(err, ErrRegisteredLimit) {
		t.Fatalf("GrowRecover under permanent pressure: %v, want ErrRegisteredLimit", err)
	}
	if ctr.Load(stats.EvRegRecoveries) != 0 {
		t.Error("failed recovery recorded a success")
	}
	if task.Now() == 0 {
		t.Error("retry attempts charged no virtual time")
	}
	// The region is unchanged after the failed grow.
	if reg := nic.regBytes; reg != 48<<20 {
		t.Errorf("registered bytes after failed grow: %d, want 48M", reg)
	}
}

// TestGrowRecoverWithoutInjectorPassesErrorThrough checks that with no fault
// plan installed GrowRecover is plain GrowAt: a genuine limit error returns
// immediately with no retry charges.
func TestGrowRecoverWithoutInjectorPassesErrorThrough(t *testing.T) {
	fab := san.New(2, sim.DefaultCosts(), stats.NewCounters(2))
	s := NewSystem(fab, Limits{MaxRegions: 8, MaxRegisteredBytes: 32 << 20, MaxPinnedBytes: 32 << 20})
	id, err := s.NIC(0).Register("home", 32<<20, true, false)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	if err := s.GrowRecover(task, 0, id, 1); !errors.Is(err, ErrRegisteredLimit) {
		t.Fatalf("GrowRecover: %v", err)
	}
	if task.Now() != 0 {
		t.Errorf("no-injector failure charged %v", task.Now())
	}
}
