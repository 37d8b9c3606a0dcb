package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestHarness makes a tiny run of each workload, untraced and traced,
// and checks that it passes its own correctness checks and prints
// exactly the metric names BENCHMARK.json declares.
func TestHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !equalSets(declared, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, the harness has %v", declared, ours)
	}
	want := map[bool][]metricDef{false: spec.EndToEnd, true: spec.PerLayer}
	if !sameDefs(spec.EndToEnd, endToEnd) || !sameDefs(spec.PerLayer, perLayer()) {
		t.Fatalf("BENCHMARK.json metrics differ from the harness's")
	}
	for _, name := range ours {
		for _, traced := range []bool{false, true} {
			if testing.Short() && (traced || name == "paper-matrix") {
				continue
			}
			d := 2 * time.Second
			if name == "paper-matrix" && traced {
				continue // two whole matrix rounds; the untraced run covers its checks
			}
			res, err := runWorkload(name, 1, d, traced, filepath.Join(t.TempDir(), "trace.jsonl"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got, names []string
			for k, v := range res.Metrics {
				got = append(got, k+" "+v.Unit)
			}
			for _, m := range want[traced] {
				names = append(names, m.Name+" "+m.Unit)
			}
			if !equalSets(got, names) {
				t.Fatalf("%s traced=%v: printed %v, BENCHMARK.json declares %v", name, traced, got, names)
			}
		}
	}
}

func sameDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
