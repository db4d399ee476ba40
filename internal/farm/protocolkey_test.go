package farm

import (
	"strings"
	"testing"

	"cables/internal/coherence"
)

// pinGenimaDefault keeps these key tests meaningful when the suite runs
// with CABLES_PROTOCOL set: Normalize fills empty protocol fields from the
// process default, and the pinned key layout is the genima default's.
func pinGenimaDefault(t *testing.T) {
	t.Helper()
	saved := coherence.DefaultName()
	if err := coherence.SetDefault(coherence.ProtoGenima); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coherence.SetDefault(saved) })
}

// TestProtocolCacheKeyCompat pins the cache-address layout from DESIGN.md
// §5e: the canonical form is byte-exact, always ends in the resolved
// |protocol= field, and an explicit "genima" spec addresses the same cell
// as one that leaves the protocol to the default.
func TestProtocolCacheKeyCompat(t *testing.T) {
	pinGenimaDefault(t)
	s := Spec{Apps: []string{"FFT"}, Procs: []int{4}, Backends: []string{"genima"}, Scale: "test"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	k := s.Cells()[0]
	if k.Protocol != coherence.ProtoGenima {
		t.Fatalf("Normalize filled protocol %q, want the genima default", k.Protocol)
	}
	// The byte-exact canonical form.  If this changes, every cached result
	// silently goes cold: bump cacheSchema with it.
	want := "cables-farm-v2|app=FFT|procs=4|backend=genima|scale=test|gran=0|contended=false|coalesce=false|plan=|seed=0|protocol=genima"
	if got := k.Canonical(); got != want {
		t.Errorf("default-protocol canonical form drifted:\n got %q\nwant %q", got, want)
	}

	// An explicit "genima" and an empty field are the same experiment.
	se := Spec{Apps: []string{"FFT"}, Procs: []int{4}, Backends: []string{"genima"}, Scale: "test",
		Protocol: coherence.ProtoGenima}
	if err := se.Normalize(); err != nil {
		t.Fatal(err)
	}
	if se.Cells()[0].Hash() != k.Hash() {
		t.Error("explicit genima and empty protocol hash to different keys")
	}

	// Other protocols change only the trailing field, and the key.
	prefix := strings.TrimSuffix(want, coherence.ProtoGenima)
	for _, proto := range []string{coherence.ProtoCommutative, coherence.ProtoDelegate} {
		kv := k
		kv.Protocol = proto
		if got, want := kv.Canonical(), prefix+proto; got != want {
			t.Errorf("%s canonical form:\n got %q\nwant %q", proto, got, want)
		}
		if kv.Hash() == k.Hash() {
			t.Errorf("%s hashed identically to genima: the cache would serve the wrong protocol's results", proto)
		}
	}
}

// TestCacheNearMissProtocol drives the protocol field through the live
// farm: flipping the protocol is a code-relevant change (cache miss per
// variant), while naming the default explicitly is not (cache hit).
func TestCacheNearMissProtocol(t *testing.T) {
	pinGenimaDefault(t)
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	base := `"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"`
	run := func(spec string) {
		t.Helper()
		sv := waitSweep(t, ts, postSweep(t, ts, spec).ID)
		if sv.Status != "done" {
			t.Fatalf("sweep %s: status %s", spec, sv.Status)
		}
	}

	run(`{` + base + `}`)
	misses := srv.Stats().CacheMisses.Load()
	if misses != 1 {
		t.Fatalf("base sweep: %d misses, want 1", misses)
	}

	for i, variant := range []string{
		`{` + base + `,"protocol":"commutative"}`,
		`{` + base + `,"protocol":"delegate"}`,
	} {
		run(variant)
		want := misses + int64(i) + 1
		if got := srv.Stats().CacheMisses.Load(); got != want {
			t.Errorf("variant %d (%s): misses %d, want %d (must not hit the cache)", i, variant, got, want)
		}
	}
	total := srv.Stats().CacheMisses.Load()

	// Naming the default is code-irrelevant: same key, cache hit.
	run(`{` + base + `,"protocol":"genima"}`)
	if got := srv.Stats().CacheMisses.Load(); got != total {
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
