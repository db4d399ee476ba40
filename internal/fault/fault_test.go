package fault

import (
	"strings"
	"testing"

	"cables/internal/sim"
	"cables/internal/stats"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"send:p=0.05",
		"send:p=0.05,node=2,from=1ms,to=80ms",
		"fetch:p=0.1,node=2",
		"notify:p=0.2,from=250us",
		"nicmem:node=1,reserve=64M,from=5ms,to=40ms",
		"nicmem:node=3,reserve=512K",
		"detach:node=3,at=200ms",
		"attach:node=2,delay=500ms",
		"send:p=0.05;detach:node=1,at=5ms;attach:node=2,delay=1s",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", spec, err)
			continue
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", p.String(), spec, err)
			continue
		}
		if p.String() != again.String() {
			t.Errorf("round trip of %q: %q != %q", spec, p.String(), again.String())
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := map[string]string{
		"":                           "empty plan",
		"  ;  ;  ":                   "empty plan",
		"send":                       "missing ':'",
		"warp:p=0.5":                 "unknown rule kind",
		"send:0.5":                   "bad key=value",
		"send:node=1":                "needs p=",
		"send:p=1.5":                 "outside [0,1]",
		"send:p=-0.1":                "outside [0,1]",
		"send:p=0.5,bogus=1":         "unknown keys",
		"send:p=0.5,from=5ms,to=1ms": "empty window",
		"send:p=0.5,from=xyz":        "bad from",
		"nicmem:reserve=64M":         "needs node=",
		"nicmem:node=1":              "needs reserve=",
		"nicmem:node=1,reserve=-4K":  "bad reserve",
		"detach:node=0,at=5ms":       "master cannot leave",
		"detach:node=2":              "needs at=",
		"detach:at=5ms":              "master cannot leave",
		"attach:delay=5ms":           "needs node=",
		"attach:node=2":              "needs delay=",
		"attach:node=2,delay=0ms":    "needs delay=",
		"send:p=0.5,node=-3":         "bad node",
	}
	for spec, want := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted; want error mentioning %q", spec, want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePlan(%q) = %v; want mention of %q", spec, err, want)
		}
	}
}

func TestParseDurUnits(t *testing.T) {
	cases := map[string]sim.Time{
		"800ns": 800,
		"250us": 250 * sim.Microsecond,
		"5ms":   5 * sim.Millisecond,
		"2s":    2 * sim.Second,
		"1.5ms": 1500 * sim.Microsecond,
		"42":    42,
	}
	for s, want := range cases {
		got, err := parseDur(s)
		if err != nil || got != want {
			t.Errorf("parseDur(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseDur("-5ms"); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestParseBytesUnits(t *testing.T) {
	cases := map[string]int64{
		"64":  64,
		"16K": 16 << 10,
		"64M": 64 << 20,
		"1G":  1 << 30,
	}
	for s, want := range cases {
		got, err := parseBytes(s)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
}

func TestBackoffExponentialAndCapped(t *testing.T) {
	want := []sim.Time{
		25 * sim.Microsecond, 50 * sim.Microsecond, 100 * sim.Microsecond,
		200 * sim.Microsecond, 400 * sim.Microsecond, 800 * sim.Microsecond,
		800 * sim.Microsecond, // capped from here on
	}
	for a, w := range want {
		if got := Backoff(a); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", a, got, w)
		}
	}
	// Huge attempt counts must not overflow into a negative backoff.
	if got := Backoff(70); got != 800*sim.Microsecond {
		t.Errorf("Backoff(70) = %v, want cap", got)
	}
}

// TestDecideDeterministic pins the core contract: injection decisions are a
// pure function of (plan, seed, src, dst, attempt, now), independent of call
// order or interleaving.
func TestDecideDeterministic(t *testing.T) {
	plan := MustParsePlan("send:p=0.5")
	a := New(plan, 42)
	b := New(plan, 42)
	// Query b in reverse order: same decisions must come back.
	type q struct {
		src, dst, attempt int
		now               sim.Time
	}
	var queries []q
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			for att := 0; att < 3; att++ {
				queries = append(queries, q{src, dst, att, sim.Time(src*1000 + dst*10 + att)})
			}
		}
	}
	got := make([]bool, len(queries))
	for i, qq := range queries {
		got[i] = a.fail(KindSend, qq.src, qq.dst, qq.attempt, qq.now)
	}
	for i := len(queries) - 1; i >= 0; i-- {
		qq := queries[i]
		if b.fail(KindSend, qq.src, qq.dst, qq.attempt, qq.now) != got[i] {
			t.Fatalf("decision %d differs between injectors built from the same plan+seed", i)
		}
	}
	// Roughly half the coins should land heads at p=0.5.
	heads := 0
	for _, h := range got {
		if h {
			heads++
		}
	}
	if heads < len(got)/4 || heads > 3*len(got)/4 {
		t.Errorf("p=0.5 fired %d/%d times; hash badly biased", heads, len(got))
	}
	// A different seed should flip at least one decision.
	c := New(plan, 43)
	same := true
	for i, qq := range queries {
		if c.fail(KindSend, qq.src, qq.dst, qq.attempt, qq.now) != got[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 43 reproduced every seed-42 decision; key derivation broken")
	}
}

func TestRuleWindowsRespected(t *testing.T) {
	j := New(MustParsePlan("send:p=1,node=1,from=10ms,to=20ms"), 1)
	if j.fail(KindSend, 1, 0, 0, 5*sim.Millisecond) {
		t.Error("fired before window")
	}
	if !j.fail(KindSend, 1, 0, 0, 15*sim.Millisecond) {
		t.Error("p=1 did not fire inside window")
	}
	if j.fail(KindSend, 1, 0, 0, 25*sim.Millisecond) {
		t.Error("fired after window")
	}
	if j.fail(KindSend, 2, 0, 0, 15*sim.Millisecond) {
		t.Error("fired on a node the rule does not name")
	}
	if j.fail(KindFetch, 1, 0, 0, 15*sim.Millisecond) || j.fail(KindNotify, 1, 0, 0, 15*sim.Millisecond) {
		t.Error("send rule triggered fetch/notify faults")
	}
}

func TestRegReserveWindows(t *testing.T) {
	j := New(MustParsePlan("nicmem:node=1,reserve=64M,from=5ms,to=40ms;nicmem:node=1,reserve=16M"), 1)
	if got := j.RegReserve(1, 1*sim.Millisecond); got != 16<<20 {
		t.Errorf("before window: %d, want open-ended rule only", got)
	}
	if got := j.RegReserve(1, 10*sim.Millisecond); got != (64<<20)+(16<<20) {
		t.Errorf("inside window: %d, want both rules summed", got)
	}
	if got := j.RegReserve(2, 10*sim.Millisecond); got != 0 {
		t.Errorf("other node pressured: %d", got)
	}
}

func TestDetachedRecordsOnce(t *testing.T) {
	j := New(MustParsePlan("detach:node=2,at=10ms"), 1)
	ctr := stats.NewCounters(4)
	j.BindCounters(ctr)
	if j.Detached(2, 5*sim.Millisecond) {
		t.Error("detached before the plan instant")
	}
	if ctr.Load(stats.EvFaultsInjected) != 0 {
		t.Error("pre-detach query injected something")
	}
	for i := 0; i < 5; i++ {
		if !j.Detached(2, 15*sim.Millisecond) {
			t.Fatal("not detached after the plan instant")
		}
	}
	if j.Detached(1, 15*sim.Millisecond) {
		t.Error("unplanned node detached")
	}
	if got := ctr.Load(stats.EvNodeDetaches); got != 1 {
		t.Errorf("detach recorded %d times, want once", got)
	}
	if j.DetachAt(2) != 10*sim.Millisecond || j.DetachAt(0) != 0 {
		t.Error("DetachAt wrong")
	}
}

func TestAttachDelay(t *testing.T) {
	j := New(MustParsePlan("attach:node=2,delay=500ms"), 1)
	ctr := stats.NewCounters(4)
	j.BindCounters(ctr)
	if d := j.AttachDelay(1); d != 0 {
		t.Errorf("undelayed node: %v", d)
	}
	if d := j.AttachDelay(2); d != 500*sim.Millisecond {
		t.Errorf("delayed node: %v, want 500ms", d)
	}
	if got := ctr.Load(stats.EvFaultsInjected); got != 1 {
		t.Errorf("faultsInjected: %d, want 1 (the delay)", got)
	}
}

// TestNilInjectorNoOps pins the "nil disables everything" contract every
// consumer relies on.
func TestNilInjectorNoOps(t *testing.T) {
	var j *Injector
	if j.fail(KindSend, 0, 1, 0, 0) || j.fail(KindFetch, 0, 1, 0, 0) || j.fail(KindNotify, 0, 1, 0, 0) {
		t.Error("nil injector failed an operation")
	}
	if j.RegReserve(0, 0) != 0 || j.AttachDelay(0) != 0 {
		t.Error("nil injector applied pressure or delay")
	}
	if j.Detached(0, 0) || j.DetachAt(0) != 0 {
		t.Error("nil injector detached a node")
	}
	j.NoteRegRecovery(0) // must not panic
	j.NoteRehome(0)
}

func TestInjectionCountersAndTrace(t *testing.T) {
	j := New(MustParsePlan("send:p=1"), 7)
	ctr := stats.NewCounters(2)
	j.BindCounters(ctr)
	if !j.fail(KindSend, 0, 1, 0, 100) {
		t.Fatal("p=1 send did not fail")
	}
	if ctr.Load(stats.EvFaultsInjected) != 1 || ctr.Load(stats.EvSendRetries) != 1 {
		t.Errorf("counters: %s", ctr)
	}
}
