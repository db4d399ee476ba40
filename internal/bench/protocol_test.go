package bench

import (
	"testing"

	"cables/internal/coherence"
	"cables/internal/stats"
)

// TestFig5ProtocolSmoke runs the fig5-small grid (FFT and LU at 1 and 4
// processors, both system backends) under every coherence protocol and
// checks every cell completes with a checksum bit-identical to the genima
// baseline of the same cell.  The applications compute the same data under
// every coherence policy; only the wire schedule may differ.
func TestFig5ProtocolSmoke(t *testing.T) {
	for _, app := range []string{"FFT", "LU"} {
		for _, procs := range []int{1, 4} {
			for _, backend := range []string{BackendGenima, BackendCables} {
				var base float64
				for _, proto := range coherence.Names() { // genima first: the baseline
					r := RunCell(Cell{App: app, Backend: backend, Procs: procs,
						Opts: CellOptions{Scale: ScaleTest, Protocol: proto}}, Attach{})
					if r.Err != nil {
						t.Fatalf("%s/%s p=%d under %s: %v", app, backend, procs, proto, r.Err)
					}
					if proto == coherence.ProtoGenima {
						base = r.Res.Checksum
					} else if r.Res.Checksum != base {
						t.Errorf("%s/%s p=%d: checksum %v under %s, %v under genima",
							app, backend, procs, r.Res.Checksum, proto, base)
					}
				}
			}
		}
	}
}

// TestProtocolDeterminism pins, for every protocol, bit-identical
// checksums across the two system backends and -jobs 1 vs N.  The workload
// set covers FFT (pure barriers), RADIX (write-shared ranking pages —
// commutative merges) and WATER-SPATIAL (per-cell locks).
func TestProtocolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 simulations")
	}
	apps := []string{"FFT", "RADIX", "WATER-SPATIAL"}
	backends := []string{BackendGenima, BackendCables}
	for _, proto := range coherence.Names() {
		ref := map[string]float64{} // app/backend -> jobs=1 checksum
		for _, jobs := range []int{1, 4} {
			type cell struct {
				app, backend string
				sum          float64
				err          error
			}
			cells := make([]cell, 0, len(apps)*len(backends))
			for _, app := range apps {
				for _, backend := range backends {
					cells = append(cells, cell{app: app, backend: backend})
				}
			}
			RunCells(jobs, len(cells), func(i int) {
				c := &cells[i]
				r := RunCell(Cell{App: c.app, Backend: c.backend, Procs: 8,
					Opts: CellOptions{Scale: ScaleTest, Protocol: proto}}, Attach{})
				c.sum, c.err = r.Res.Checksum, r.Err
			})
			for _, c := range cells {
				if c.err != nil {
					t.Fatalf("%s/%s under %s jobs=%d: %v", c.app, c.backend, proto, jobs, c.err)
				}
				key := c.app + "/" + c.backend
				if want, ok := ref[key]; !ok {
					ref[key] = c.sum
				} else if c.sum != want {
					t.Errorf("%s under %s: checksum %v at jobs=%d, %v at jobs=1",
						key, proto, c.sum, jobs, want)
				}
			}
		}
	}
}

// TestProtocolVariantsRun checks every protocol variant completes the
// apps it exists for with a non-zero checksum, and actually exercises its
// policy there: RADIX merges under commutative, VOLREND delegates critical
// sections under delegate.
func TestProtocolVariantsRun(t *testing.T) {
	for _, proto := range coherence.Names() {
		for _, app := range []string{"RADIX", "WATER-SPATIAL", "VOLREND"} {
			r := RunCell(Cell{App: app, Backend: BackendGenima, Procs: 8,
				Opts: CellOptions{Scale: ScaleTest, Protocol: proto}}, Attach{})
			if r.Err != nil {
				t.Fatalf("%s under %s: %v", app, proto, r.Err)
			}
			if r.Res.Checksum == 0 {
				t.Fatalf("%s under %s: empty run", app, proto)
			}
			switch proto {
			case coherence.ProtoCommutative:
				if app == "RADIX" && r.Ctr.Load(stats.EvCommMerges) == 0 {
					t.Error("commutative ran RADIX without a single merge")
				}
			case coherence.ProtoDelegate:
				if app == "VOLREND" && r.Ctr.Load(stats.EvDelegations) == 0 {
					t.Error("delegate ran VOLREND without a single delegation")
				}
			}
		}
	}
}

// TestProtocolsTableSmoke runs the `cablesim protocols` harness on a small
// app set and checks the table carries one row per (app, protocol) with
// matching checksums down each app's column, plus the effects the variants
// exist for: commutative strictly reduces messages on a write-shared app.
func TestProtocolsTableSmoke(t *testing.T) {
	apps := []string{"FFT", "RADIX"}
	protos := coherence.Names()
	var cells []Cell
	for _, app := range apps {
		for _, proto := range protos {
			cells = append(cells, Cell{App: app, Backend: BackendGenima, Procs: 8,
				Opts: CellOptions{Scale: ScaleTest, Protocol: proto}})
		}
	}
	byApp := map[string]map[string]CellRun{}
	for _, c := range Sweep(cells, Attach{}, DefaultJobs()) {
		if c.Err != nil {
			t.Fatalf("%s under %s: %v", c.Label(), c.Opts.Protocol, c.Err)
		}
		if byApp[c.App] == nil {
			byApp[c.App] = map[string]CellRun{}
		}
		byApp[c.App][c.Opts.Protocol] = c
	}
	for app, row := range byApp {
		base := row[coherence.ProtoGenima]
		for proto, c := range row {
			if c.Res.Checksum != base.Res.Checksum {
				t.Errorf("%s: checksum %v under %s, %v under genima", app, c.Res.Checksum, proto, base.Res.Checksum)
			}
		}
	}
	radix := byApp["RADIX"]
	g := radix[coherence.ProtoGenima].Ctr.Load(stats.EvMessagesSent)
	c := radix[coherence.ProtoCommutative]
	if m := c.Ctr.Load(stats.EvMessagesSent); m >= g {
		t.Errorf("commutative did not reduce RADIX messages: %d vs %d under genima", m, g)
	} else if c.Ctr.Load(stats.EvCommMerges) == 0 {
		t.Error("commutative reduced messages without reporting merges")
	}
}
