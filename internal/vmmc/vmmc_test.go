package vmmc

import (
	"errors"
	"testing"
	"testing/quick"

	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
)

func newSys(limits Limits) *System {
	fab := san.New(4, sim.DefaultCosts(), stats.NewCounters(4))
	return NewSystem(fab, limits)
}

func TestRegisterWithinLimits(t *testing.T) {
	s := newSys(Limits{MaxRegions: 2, MaxRegisteredBytes: 100, MaxPinnedBytes: 50})
	nic := s.NIC(0)
	id1, err := nic.Register("a", 40, true, false)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if _, err := nic.Register("b", 30, false, false); err != nil {
		t.Fatalf("second: %v", err)
	}
	if _, err := nic.Register("c", 10, false, false); !errors.Is(err, ErrRegionLimit) {
		t.Errorf("region limit: %v", err)
	}
	nic.Unregister(id1)
	if _, err := nic.Register("c", 10, false, false); err != nil {
		t.Errorf("after unregister: %v", err)
	}
	regions, reg, pin := nic.Usage()
	if regions != 2 || reg != 40 || pin != 0 {
		t.Errorf("usage: %d regions %d reg %d pin", regions, reg, pin)
	}
}

func TestRegisteredBytesLimit(t *testing.T) {
	s := newSys(Limits{MaxRegions: 10, MaxRegisteredBytes: 100, MaxPinnedBytes: 100})
	nic := s.NIC(0)
	if _, err := nic.Register("a", 80, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := nic.Register("b", 30, false, false); !errors.Is(err, ErrRegisteredLimit) {
		t.Errorf("registered limit: %v", err)
	}
}

func TestPinnedBytesLimit(t *testing.T) {
	s := newSys(Limits{MaxRegions: 10, MaxRegisteredBytes: 1000, MaxPinnedBytes: 50})
	nic := s.NIC(0)
	if _, err := nic.Register("a", 40, true, false); err != nil {
		t.Fatal(err)
	}
	if _, err := nic.Register("b", 20, true, false); !errors.Is(err, ErrPinnedLimit) {
		t.Errorf("pinned limit: %v", err)
	}
	// Unpinned registration of the same size is fine.
	if _, err := nic.Register("c", 20, false, false); err != nil {
		t.Errorf("unpinned: %v", err)
	}
}

func TestDynamicRegionsBypassLimits(t *testing.T) {
	s := newSys(Limits{MaxRegions: 1, MaxRegisteredBytes: 10, MaxPinnedBytes: 10})
	nic := s.NIC(0)
	for i := 0; i < 5; i++ {
		if _, err := nic.Register("dyn", 1<<20, false, true); err != nil {
			t.Fatalf("dynamic %d: %v", i, err)
		}
	}
	regions, reg, _ := nic.Usage()
	if regions != 0 || reg != 0 {
		t.Errorf("dynamic regions counted against limits: %d/%d", regions, reg)
	}
}

func TestGrow(t *testing.T) {
	s := newSys(Limits{MaxRegions: 4, MaxRegisteredBytes: 100, MaxPinnedBytes: 100})
	nic := s.NIC(0)
	id, err := nic.Register("home", 10, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.Grow(id, 80); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := nic.Grow(id, 20); !errors.Is(err, ErrRegisteredLimit) {
		t.Errorf("grow past limit: %v", err)
	}
	if err := nic.Grow(RegionID(999), 1); err == nil {
		t.Error("grow of unknown region succeeded")
	}
	if err := nic.Grow(id, -1); err == nil {
		t.Error("negative grow succeeded")
	}
}

// TestUsageNeverNegative is a property test: any sequence of register /
// unregister operations leaves non-negative usage equal to the live set.
func TestUsageNeverNegative(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newSys(Limits{MaxRegions: 8, MaxRegisteredBytes: 1 << 20, MaxPinnedBytes: 1 << 20})
		nic := s.NIC(0)
		live := make(map[RegionID]int64)
		var order []RegionID
		for _, op := range ops {
			if op%2 == 0 || len(order) == 0 {
				size := int64(op) * 64
				id, err := nic.Register("x", size, op%3 == 0, false)
				if err == nil {
					live[id] = size
					order = append(order, id)
				}
			} else {
				i := int(op) % len(order)
				id := order[i]
				nic.Unregister(id)
				delete(live, id)
				order = append(order[:i], order[i+1:]...)
			}
		}
		var liveBytes int64
		for _, sz := range live {
			liveBytes += sz
		}
		regions, reg, pin := nic.Usage()
		return regions == len(live) && reg == liveBytes && pin >= 0 && pin <= reg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNegativeRegionSizeRejected(t *testing.T) {
	s := newSys(DefaultLimits())
	if _, err := s.NIC(0).Register("bad", -5, false, false); err == nil {
		t.Error("negative size accepted")
	}
}
