package bench

import (
	"io"
	"strings"
	"testing"
)

// TestLimitsTable checks the Tables 1/2 demonstration: the base system hits
// both NIC limits, CableS hits neither in these scenarios.
func TestLimitsTable(t *testing.T) {
	s := Limits(io.Discard).String()
	t.Logf("\n%s", s)
	lines := strings.Split(s, "\n")
	var segs, big string
	for _, l := range lines {
		if strings.HasPrefix(l, "60 segments") {
			segs = l
		}
		if strings.HasPrefix(l, "10 x 40 MB") {
			big = l
		}
	}
	if !strings.Contains(segs, "region table full") || !strings.Contains(segs, "OK (60") {
		t.Errorf("region-count scenario wrong: %s", segs)
	}
	if !strings.Contains(big, "registered-memory limit") || !strings.Contains(big, "OK (10") {
		t.Errorf("registered-bytes scenario wrong: %s", big)
	}
}

// TestFig5OceanFailsOnlyAt32OnBase reproduces the paper's registration
// failure point: OCEAN runs on the base system up to 16 processors and
// fails at 32; CableS runs everywhere.
func TestFig5OceanFailsOnlyAt32OnBase(t *testing.T) {
	runs := RunFig5([]string{"OCEAN"}, []int{16, 32}, ScaleTest, nil, CellOptions{}, 2)
	if len(runs) != 4 {
		t.Fatalf("swept %d cells, want 4", len(runs))
	}
	for _, c := range runs {
		wantFail := c.Backend == BackendGenima && c.Procs == 32
		if (c.Err != nil) != wantFail {
			t.Errorf("%s: err %v, want failure %v", c.Label(), c.Err, wantFail)
		}
	}
}
