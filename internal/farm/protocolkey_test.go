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
		pre     = "cables-farm-v5|app=FFT|procs=4|backend=genima|"
		base    = pre + "scale=test|gran=0|contended=false|plan=|seed=0|protocol="
		genima  = base + "genima"
		genimaH = "48d48b2b1eccc284e1be3251a5ae9a3c7c60c2f0eb711b296298f27051129dd8"
		plan    = pre + "scale=test|gran=0|contended=false|plan=send:p=0.05;detach:node=1,at=5ms|seed=3|protocol=genima"
		planH   = "7fd65bdba531212701df20671970f447d4341fcf4529170326314c8f5f3d0357"
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
			"b27016067a939f71d9c5922b63430a3f54f8408ae1ed13726f3c87853b8f0fd1"},
		{"contendedSync", func(s *Spec) { s.ContendedSync = true },
			pre + "scale=test|gran=0|contended=true|plan=|seed=0|protocol=genima",
			"ecae78c7aa9d551253160d0f8ad6110b31dd4bd99973f9127b2311c19da8fd4a"},
		{"scale full", func(s *Spec) { s.Scale = "full" },
			pre + "scale=full|gran=0|contended=false|plan=|seed=0|protocol=genima",
			"633d5d3ff3012d75ee5f77abf73b6dd24cdabf007de4faadb2c1820d73dd2893"},
		{"plan and seed", func(s *Spec) { s.Plan, s.Seed = "send:p=0.05;detach:node=1,at=5ms", 3 }, plan, planH},
		{"plan spelling", func(s *Spec) { s.Plan, s.Seed = "send:p=0.0500;detach:at=5ms,node=1", 3 }, plan, planH},
		{"commutative", func(s *Spec) { s.Protocol = coherence.ProtoCommutative }, base + "commutative",
			"d50b3635b3900a0def3454b2ea0adaad28dd7658f33d35be0c9c3d17799ca17d"},
		{"delegate", func(s *Spec) { s.Protocol = coherence.ProtoDelegate }, base + "delegate",
			"733255ab71e5728591036749193f8e9e6b38c92db4978224e1649928d6ba96c8"},
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

	// The model's default granularity spelled out is the default cell.
	s4 := s
	s4.Plan, s4.Gran = "send:p=0.05", 64<<10
	if err := s4.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s4.Gran != 0 || s4.Cells()[0].Hash() != k.Hash() {
		t.Errorf(`"gran":65536 normalized to %d with key %s, want 0 and the default's %s`, s4.Gran, s4.Cells()[0].Hash(), k.Hash())
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
