package farm

import (
	"strings"
	"testing"

	"cables/internal/coherence"
)

// TestProtocolCacheKeyCompat pins the cache-address layout from DESIGN.md
// §5e and docs/SERVE.md: for a spec varying each field in turn, the
// canonical form and its hash are byte-exact, and the form always ends in
// the resolved |protocol= field.  Equal experiments collide on purpose: an
// explicit "genima" and an empty protocol, two spellings of one plan, and
// any seed without a plan (which Normalize also zeroes in the echoed
// spec).  The pins were recorded before the canonical form moved from the
// farm's own key type onto bench.Cell.  If one changes, every cached
// result silently goes cold: bump cacheSchema with it.
func TestProtocolCacheKeyCompat(t *testing.T) {
	const (
		pre     = "cables-farm-v3|app=FFT|procs=4|backend=genima|"
		base    = pre + "scale=test|gran=0|contended=false|plan=|seed=0|protocol="
		genima  = base + "genima"
		genimaH = "26de36c2829e343e168348282d32ada2ce7301a78de7744008e742f9448f7b46"
		plan    = pre + "scale=test|gran=0|contended=false|plan=send:p=0.05;detach:node=1,at=5ms|seed=3|protocol=genima"
		planH   = "bcb35aaf011cf159d8e0272b84cb3181d7f48bba7d8a1d8bb9d9eadefe64a09f"
	)
	for _, tc := range []struct {
		name            string
		edit            func(*Spec)
		canonical, hash string
	}{
		{"default", func(*Spec) {}, genima, genimaH},
		{"explicit genima", func(s *Spec) { s.Protocol = coherence.ProtoGenima }, genima, genimaH},
		{"seed without plan", func(s *Spec) { s.Seed = 9 }, genima, genimaH},
		{"gran", func(s *Spec) { s.Gran = 4096 },
			pre + "scale=test|gran=4096|contended=false|plan=|seed=0|protocol=genima",
			"3e1a2a6558928fc219eacf09016d046eaa3d851080ff7e0975ab9e591c57f6a6"},
		{"contendedSync", func(s *Spec) { s.ContendedSync = true },
			pre + "scale=test|gran=0|contended=true|plan=|seed=0|protocol=genima",
			"9bb8008132f2fe413d76ea10fa0e3ee0165bf5af4f494100f6ef899c2658344e"},
		{"scale full", func(s *Spec) { s.Scale = "full" },
			pre + "scale=full|gran=0|contended=false|plan=|seed=0|protocol=genima",
			"b5e23eb1d919b8fb7893055346870428f205ea0005884e6578b89bf80a25046a"},
		{"plan and seed", func(s *Spec) { s.Plan, s.Seed = "send:p=0.05;detach:node=1,at=5ms", 3 }, plan, planH},
		{"plan spelling", func(s *Spec) { s.Plan, s.Seed = "send:p=0.0500;detach:at=5ms,node=1", 3 }, plan, planH},
		{"commutative", func(s *Spec) { s.Protocol = coherence.ProtoCommutative }, base + "commutative",
			"8b743df33d2fc6743537c153a9fa00b1b2d677d96198023a56d676b9062559d0"},
		{"delegate", func(s *Spec) { s.Protocol = coherence.ProtoDelegate }, base + "delegate",
			"1c9b721cccd25caab57d313253434a8a4fa44e966365d88a1a439203f26a6640"},
	} {
		s := Spec{Apps: []string{"FFT"}, Procs: []int{4}, Backends: []string{"genima"}, Scale: "test"}
		tc.edit(&s)
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.Plan == "" && s.Seed != 0 {
			t.Errorf("%s: fault-free seed %d not canonicalized to 0", tc.name, s.Seed)
		}
		c := s.Cells()[0]
		if got := c.Canonical(); got != tc.canonical {
			t.Errorf("%s: canonical form drifted:\n got %q\nwant %q", tc.name, got, tc.canonical)
		}
		if got := c.Hash(); got != tc.hash {
			t.Errorf("%s: hash drifted: got %s, want %s", tc.name, got, tc.hash)
		}
	}
}

// TestCacheNearMissProtocol drives the protocol field through the live
// farm: flipping the protocol is a code-relevant change (cache miss per
// variant), while naming the default explicitly is not (cache hit).  Every
// spec's result is the fresh run of its cell.
func TestCacheNearMissProtocol(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	base := `"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"`
	run := func(spec string) {
		t.Helper()
		sv := waitSweep(t, ts, postSweep(t, ts, spec).ID)
		if sv.Status != "done" {
			t.Fatalf("sweep %s: status %s", spec, sv.Status)
		}
		servesItsCells(t, srv, spec)
	}

	run(`{` + base + `}`)
	misses := srv.metrics.cacheMisses.Load()
	if misses != 1 {
		t.Fatalf("base sweep: %d misses, want 1", misses)
	}

	for i, variant := range []string{
		`{` + base + `,"protocol":"commutative"}`,
		`{` + base + `,"protocol":"delegate"}`,
	} {
		run(variant)
		want := misses + int64(i) + 1
		if got := srv.metrics.cacheMisses.Load(); got != want {
			t.Errorf("variant %d (%s): misses %d, want %d (must not hit the cache)", i, variant, got, want)
		}
	}
	total := srv.metrics.cacheMisses.Load()

	// Naming the default is code-irrelevant: same key, cache hit.
	run(`{` + base + `,"protocol":"genima"}`)
	if got := srv.metrics.cacheMisses.Load(); got != total {
		t.Errorf(`explicit "genima" missed the cache (misses %d -> %d), want hit`, total, got)
	}

	// Unknown protocols are rejected at admission, not cached as cells.
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{`+base+`,"protocol":"treadmarks"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown protocol admitted with status %d, want 400", resp.StatusCode)
	}
	admissionInvariant(t, srv)
}

// TestSpecCanonicalization: Normalize resolves every field a cell's
// canonical form carries, so equal experiments share one address: two
// spellings of one plan, and a seed with no plan (zeroed in the spec).
func TestSpecCanonicalization(t *testing.T) {
	s := Spec{Apps: []string{"FFT"}, Procs: []int{4}, Backends: []string{"genima"},
		Plan: "send:p=0.0500", Seed: 7, Scale: "test"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells: %d, want 1", len(cells))
	}
	k := cells[0]
	canon := k.Canonical()
	for _, want := range []string{"app=FFT", "procs=4", "backend=genima", "scale=test",
		"protocol=" + coherence.ProtoGenima, "seed=7", "plan=send:p=0.05"} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical %q missing %q", canon, want)
		}
	}

	// Same experiment, different plan spelling: same address.
	s2 := s
	s2.Plan = "send:p=0.05"
	if err := s2.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s2.Cells()[0].Hash() != k.Hash() {
		t.Error("equivalent plan spellings produced different cache keys")
	}

	// No plan: the seed is code-irrelevant and must canonicalize to 0.
	s3 := Spec{Apps: []string{"FFT"}, Procs: []int{4}, Backends: []string{"genima"},
		Scale: "test", Seed: 123}
	if err := s3.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s3.Seed != 0 {
		t.Errorf("fault-free seed not canonicalized: %d", s3.Seed)
	}
}
