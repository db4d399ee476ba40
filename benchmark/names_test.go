package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every workload and metric BENCHMARK.json declares is one the code emits,
// under the same name, unit, direction and bound — and the other way round.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}

	check := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code emits %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range got {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s %q (%q): bad or repeated name, or bad unit", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if i >= len(want) {
				continue
			}
			w := want[i]
			if d.Name != w.name || d.Unit != w.unit || d.Better != w.better {
				t.Errorf("%s %d: declared %s [%s] %s, the code emits %s [%s] %s", kind, i, d.Name, d.Unit, d.Better, w.name, w.unit, w.better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != w.bound || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, want %v in (0, 0.25]", kind, d.Name, d.Bound, w.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer(), false)
	if len(bj.PerLayer) > 128 || len(bj.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(bj.EndToEnd), len(bj.PerLayer))
	}

	setup := false
	for _, d := range bj.EndToEnd {
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s] lower")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
}

// What the shared layer helpers record is declared: a name that is not
// would be dropped from the traced result without a word.
func TestLayerNamesDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer() {
		if declared[d.name] {
			t.Errorf("per-layer metric %s declared twice", d.name)
		}
		declared[d.name] = true
	}
	m := newMeasurement()
	m.liveLayer(nil, nil)
	m.clientLayer([]sweepTiming{{posted: time.Unix(0, 1)}}, 0)
	for name := range m.layer {
		if !declared[name] {
			t.Errorf("a phase records %s, which BENCHMARK.json does not declare", name)
		}
	}
}
