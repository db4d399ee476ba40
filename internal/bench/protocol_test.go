package bench

import (
	"testing"

	"cables/internal/coherence"
	"cables/internal/stats"
	"cables/internal/wire"
)

// setProtocol pins the process-default coherence protocol for one test,
// restoring the prior default afterwards.
func setProtocol(t *testing.T, name string) {
	t.Helper()
	saved := coherence.DefaultName()
	if err := coherence.SetDefault(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := coherence.SetDefault(saved); err != nil {
			t.Errorf("restore protocol default: %v", err)
		}
	})
}

// smokeProtocols returns the protocols a smoke test should cover: just
// the process default when the CI matrix pinned one via CABLES_PROTOCOL,
// every registered protocol otherwise.
func smokeProtocols() []string {
	if def := coherence.DefaultName(); def != coherence.ProtoGenima {
		return []string{def}
	}
	return coherence.Names()
}

// TestDefaultProtocolPlumbing: an empty CellOptions.Protocol resolves to
// the process default (what CABLES_PROTOCOL / `cablesim -protocol` set),
// so a cell run with the default pinned to delegate actually delegates.
// Delegation triggers only on acquires that are contended at call time;
// VOLREND's shared task-queue lock is contended at this scale.
func TestDefaultProtocolPlumbing(t *testing.T) {
	setProtocol(t, coherence.ProtoDelegate)
	_, ctr, err := RunAppCell("VOLREND", BackendGenima, 8, ScaleTest, nil, CellOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Load(stats.EvDelegations) == 0 {
		t.Error("process-default delegate protocol was not picked up by an empty CellOptions")
	}
}

// TestFig5ProtocolSmoke is the CI backend × protocol matrix entry point:
// it runs the fig5-small grid (FFT and LU at 1 and 4 processors, both
// system backends) under the protocol selected by CABLES_PROTOCOL — or
// all three when none is pinned — and checks every cell completes with a
// checksum bit-identical to the genima baseline of the same cell.  The
// applications compute the same data under every coherence policy; only
// the wire schedule may differ.
func TestFig5ProtocolSmoke(t *testing.T) {
	for _, proto := range smokeProtocols() {
		for _, app := range []string{"FFT", "LU"} {
			for _, procs := range []int{1, 4} {
				for _, backend := range []string{BackendGenima, BackendCables} {
					base, _, err := RunAppCell(app, backend, procs, ScaleTest, nil,
						CellOptions{Protocol: coherence.ProtoGenima})
					if err != nil {
						t.Fatalf("%s/%s p=%d genima baseline: %v", app, backend, procs, err)
					}
					got, _, err := RunAppCell(app, backend, procs, ScaleTest, nil,
						CellOptions{Protocol: proto})
					if err != nil {
						t.Fatalf("%s/%s p=%d under %s: %v", app, backend, procs, proto, err)
					}
					if got.Checksum != base.Checksum {
						t.Errorf("%s/%s p=%d: checksum %v under %s, %v under genima",
							app, backend, procs, got.Checksum, proto, base.Checksum)
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
				res, _, err := RunAppCell(c.app, c.backend, 8, ScaleTest, nil,
					CellOptions{Protocol: proto})
				c.sum, c.err = res.Checksum, err
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

// TestWireConservationProtocols extends the op plane's accounting contract
// to the protocol variants: under commutative (whose wire.merge ops ride
// the data plane) and delegate (whose delreq/deldone ops ride the control
// plane), every byte the counters report as sent or fetched still appears
// as the Arg of exactly one wire.* trace event.
func TestWireConservationProtocols(t *testing.T) {
	for _, proto := range coherence.Names() {
		for _, app := range []string{"RADIX", "WATER-SPATIAL", "VOLREND"} {
			res, ctr, ring, err := RunAppCellTraced(app, BackendGenima, 8, ScaleTest, nil, 1<<19,
				CellOptions{Protocol: proto})
			if err != nil {
				t.Fatalf("%s under %s: %v", app, proto, err)
			}
			if res.Checksum == 0 {
				t.Fatalf("%s under %s: empty run", app, proto)
			}
			if d := ring.Dropped(); d != 0 {
				t.Fatalf("%s under %s: ring dropped %d events; the sum would be partial", app, proto, d)
			}
			var traced int64
			for _, e := range ring.Events() {
				if wire.IsWire(e.Kind) {
					traced += int64(e.Arg)
				}
			}
			counted := ctr.Load(stats.EvBytesSent) + ctr.Load(stats.EvBytesFetched)
			if traced != counted {
				t.Errorf("%s under %s: conservation violated: wire trace Args sum to %d bytes, counters report %d",
					app, proto, traced, counted)
			}
			// The variant under test must actually have exercised its
			// policy on this workload, or the invariant check is vacuous.
			switch proto {
			case coherence.ProtoCommutative:
				if app == "RADIX" && ctr.Load(stats.EvCommMerges) == 0 {
					t.Error("commutative ran RADIX without a single merge")
				}
			case coherence.ProtoDelegate:
				if app == "VOLREND" && ctr.Load(stats.EvDelegations) == 0 {
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
	cells := make([]ProtocolCell, len(apps)*len(protos))
	errs := RunCells(DefaultJobs(), len(cells), func(i int) {
		app, proto := apps[i/len(protos)], protos[i%len(protos)]
		c := &cells[i]
		c.App, c.Protocol = app, proto
		res, ctr, _, err := RunAppCellProfiled(app, BackendGenima, 8, ScaleTest, nil,
			CellOptions{Protocol: proto})
		c.Res, c.Err = res, err
		if err == nil {
			c.Messages = ctr.Load(stats.EvMessagesSent)
			c.Merges = ctr.Load(stats.EvCommMerges)
		}
	})
	for i, e := range errs {
		if e != nil || cells[i].Err != nil {
			t.Fatalf("cell %d (%s/%s): %v %v", i, cells[i].App, cells[i].Protocol, e, cells[i].Err)
		}
	}
	byApp := map[string]map[string]ProtocolCell{}
	for _, c := range cells {
		if byApp[c.App] == nil {
			byApp[c.App] = map[string]ProtocolCell{}
		}
		byApp[c.App][c.Protocol] = c
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
	if g, c := radix[coherence.ProtoGenima], radix[coherence.ProtoCommutative]; c.Messages >= g.Messages {
		t.Errorf("commutative did not reduce RADIX messages: %d vs %d under genima", c.Messages, g.Messages)
	} else if c.Merges == 0 {
		t.Error("commutative reduced messages without reporting merges")
	}
}
