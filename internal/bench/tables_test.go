package bench

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"cables/internal/sim"
)

// approx asserts d is within tol (fractional) of want.
func approx(t *testing.T, name string, d, want sim.Time, tol float64) {
	t.Helper()
	lo := sim.Time(float64(want) * (1 - tol))
	hi := sim.Time(float64(want) * (1 + tol))
	if d < lo || d > hi {
		t.Errorf("%s: got %v, want %v +/- %.0f%%", name, d, want, tol*100)
	}
}

// TestTable3MatchesPaper checks the calibrated VMMC costs against the
// paper's Table 3 values.
func TestTable3MatchesPaper(t *testing.T) {
	tab := Table3(io.Discard)
	s := tab.String()
	for _, want := range []string{
		"7.8",  // 1-word send 7.8us
		"22",   // 1-word fetch
		"51.9", // 4KB send (paper: 52us)
		"80.9", // 4KB fetch (paper: 81us)
		"125 MBytes/s",
		"18.0us", // notification
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 3 missing value %q in:\n%s", want, s)
		}
	}
}

// TestTable4MatchesPaper regenerates Table 4 and spot-checks the headline
// rows against the paper's measurements.
func TestTable4MatchesPaper(t *testing.T) {
	tab := Table4(io.Discard)
	s := tab.String()
	t.Logf("\n%s", s)
	rows := map[string]sim.Time{
		"attach node":                    3690 * sim.Millisecond,
		"local thread create":            766 * sim.Microsecond,
		"remote thread create":           819 * sim.Microsecond,
		"local mutex lock (first time)":  33 * sim.Microsecond,
		"local mutex lock":               4 * sim.Microsecond,
		"remote mutex lock (first time)": 122 * sim.Microsecond,
		"remote mutex lock":              101 * sim.Microsecond,
		"mutex unlock":                   6 * sim.Microsecond,
		"conditional signal":             100 * sim.Microsecond,
		"GeNIMA barrier":                 70 * sim.Microsecond,
		"administration request":         20 * sim.Microsecond,
	}
	for name, want := range rows {
		got, ok := findRowTotal(s, name)
		if !ok {
			t.Errorf("row %q missing", name)
			continue
		}
		approx(t, name, got, want, 0.25)
	}
	// The pthreads (mutex+cond) barrier must be orders of magnitude slower
	// than the native one.
	pb, ok := findRowTotal(s, "pthreads barrier")
	if !ok || pb < sim.Millisecond {
		t.Errorf("pthreads barrier: got %v ok=%v, want >= 1ms", pb, ok)
	}
}

// TestTable4Reproducible renders the Table 4 API-cost suite twice: the
// rendering must be byte-identical run to run.
func TestTable4Reproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table4 suite twice")
	}
	noStalls(t)
	a := Table4(io.Discard).String()
	b := Table4(io.Discard).String()
	if a != b {
		t.Errorf("table4 is not reproducible:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// findRowTotal extracts the Total cell of the named row from a rendered
// table.
func findRowTotal(table, name string) (sim.Time, bool) {
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, name))
		if len(fields) == 0 {
			continue
		}
		// Skip rows whose name merely starts with the requested name
		// (e.g. "local mutex lock (first time)" vs "local mutex lock").
		if d, ok := parseTime(fields[0]); ok {
			return d, true
		}
	}
	return 0, false
}

func parseTime(s string) (sim.Time, bool) {
	i := 0
	for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	if i == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, false
	}
	switch s[i:] {
	case "us":
		return sim.Time(v * float64(sim.Microsecond)), true
	case "ms":
		return sim.Time(v * float64(sim.Millisecond)), true
	case "s":
		return sim.Time(v * float64(sim.Second)), true
	}
	return 0, false
}
