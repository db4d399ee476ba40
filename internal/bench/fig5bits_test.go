package bench

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"cables/internal/stats"
)

// fig5Bits is one cell's pinned outcome in testdata/fig5_test_bits.json.
type fig5Bits struct {
	App          string `json:"app"`
	Backend      string `json:"backend"`
	Procs        int    `json:"procs"`
	Failed       bool   `json:"failed"`
	ChecksumBits uint64 `json:"checksum_bits"`
	Parallel     int64  `json:"parallel"`
	DiffBytes    int64  `json:"diff_bytes"`
}

// TestFig5ChecksumBits pins the test-scale Figure 5 grid bit for bit: every
// app on both backends at every processor count must reproduce the recorded
// checksum bits, parallel-section virtual time and diff bytes exactly.  The
// host kernels (the page diff, LU's block update, VOLREND's ray loop) may
// change host time only; any drift in these values is a bug.
//
// The values were recorded on linux/amd64, where the Go compiler fuses a
// multiply and an add into one FMA only for an explicit math.FMA.  The spec
// lets other targets (arm64, ppc64le, s390x, riscv64) fuse x*y±z and round
// once, which moves the float results, so the test runs on amd64 only.
//
// On a mismatch the test writes the whole grid it swept to
// testdata/fig5_test_bits.got.json.  After a change that moves virtual time
// on purpose, re-record with
//
//	go test ./internal/bench -run TestFig5ChecksumBits
//	mv internal/bench/testdata/fig5_test_bits.got.json internal/bench/testdata/fig5_test_bits.json
func TestFig5ChecksumBits(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the whole test-scale grid")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("bits recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	raw, err := os.ReadFile("testdata/fig5_test_bits.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []fig5Bits
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	runs := RunFig5(AppNames, ProcCounts, testOpts, 2)
	got := make([]fig5Bits, len(runs))
	for i, r := range runs {
		got[i] = fig5Bits{App: r.App, Backend: r.Backend, Procs: r.Procs, Failed: r.Err != nil}
		if r.Err == nil {
			got[i].ChecksumBits = math.Float64bits(r.Res.Checksum)
			got[i].Parallel = int64(r.Res.Parallel)
			got[i].DiffBytes = r.Ctr.Load(stats.EvDiffBytes)
		}
		if i < len(want) && got[i] != want[i] {
			t.Errorf("cell %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Errorf("swept %d cells, golden has %d", len(got), len(want))
	}
	if t.Failed() {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		const path = "testdata/fig5_test_bits.got.json"
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote the swept grid to %s", path)
	}
}
