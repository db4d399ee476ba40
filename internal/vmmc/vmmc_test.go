package vmmc

import (
	"errors"
	"strings"
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
	if _, err := nic.Register("a", 40, true, false); err != nil {
		t.Fatalf("first: %v", err)
	}
	if _, err := nic.Register("b", 30, false, false); err != nil {
		t.Fatalf("second: %v", err)
	}
	if _, err := nic.Register("c", 10, false, false); !errors.Is(err, ErrRegionLimit) {
		t.Errorf("region limit: %v", err)
	}
	if len(nic.regions) != 2 || nic.regBytes != 70 || nic.pinBytes != 40 {
		t.Errorf("usage: %d regions %d reg %d pin", len(nic.regions), nic.regBytes, nic.pinBytes)
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
	if nic.regBytes != 0 || nic.pinBytes != 0 {
		t.Errorf("dynamic regions counted against limits: %d/%d", nic.regBytes, nic.pinBytes)
	}
	// Nor do they take a static region entry: the one entry is still free.
	if _, err := nic.Register("static", 1, false, false); err != nil {
		t.Fatalf("static after dynamic: %v", err)
	}
	_, err := nic.Register("static2", 1, false, false)
	if !errors.Is(err, ErrRegionLimit) || !strings.Contains(err.Error(), "(1 regions in use)") {
		t.Errorf("second static at MaxRegions 1: %v", err)
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
// grow operations, failed ones included, leaves non-negative usage equal to
// the live set and within the limits.
func TestUsageNeverNegative(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newSys(Limits{MaxRegions: 8, MaxRegisteredBytes: 1 << 14, MaxPinnedBytes: 1 << 13})
		nic := s.NIC(0)
		var order []RegionID
		for _, op := range ops {
			size := int64(op) * 16
			if op%2 == 0 || len(order) == 0 {
				if id, err := nic.Register("x", size, op%3 == 0, false); err == nil {
					order = append(order, id)
				}
			} else {
				nic.Grow(order[int(op)%len(order)], size)
			}
		}
		var liveBytes, pinnedBytes int64
		for _, r := range nic.regions {
			liveBytes += r.Bytes
			if r.Pinned {
				pinnedBytes += r.Bytes
			}
		}
		return len(nic.regions) == len(order) && nic.regBytes == liveBytes &&
			nic.pinBytes == pinnedBytes && nic.pinBytes >= 0 && nic.pinBytes <= nic.regBytes &&
			nic.regBytes <= 1<<14 && nic.pinBytes <= 1<<13
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
