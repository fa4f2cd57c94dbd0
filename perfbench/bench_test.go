package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test holds the
// benchmark to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smokeBins is the short replay range of the smoke runs.
const smokeBins = 300

// TestSmoke runs every workload on a few hundred bins, untraced and
// traced, and asserts that each emits exactly the metrics BENCHMARK.json
// names, with their units, and that every correctness check passes.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range spec.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			in, err := genInputs(w, 7, smokeBins)
			if err != nil {
				t.Fatal(err)
			}
			o := options{workload: w.name, seed: 7, seconds: 0, out: t.TempDir()}
			res, problems, err := measure(in, o)
			if err != nil {
				t.Fatal(err)
			}
			expect(t, "untraced", res, problems, spec.EndToEnd)
			o.trace = true
			res, problems, err = measure(in, o)
			if err != nil {
				t.Fatal(err)
			}
			expect(t, "traced", res, problems, spec.PerLayer)
		})
	}
}

// expect asserts that a run passed its checks and reported exactly the
// metrics want names, in their units.
func expect(t *testing.T, mode string, res *result, problems []string, want []specMetric) {
	t.Helper()
	for _, p := range problems {
		t.Errorf("%s: check failed: %s", mode, p)
	}
	if !res.Correct {
		t.Errorf("%s: result not correct", mode)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", mode, res.Attempted)
	}
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", mode, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", mode, m.Name, got.Unit, m.Unit)
		}
	}
	for name := range res.Metrics {
		if !names[name] {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", mode, name)
		}
	}
}
