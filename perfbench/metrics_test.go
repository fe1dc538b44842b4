package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric lists the benchmark prints must be exactly the ones
// BENCHMARK.json declares, in name and unit, and every workload it lists
// must be one the benchmark runs.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark prints %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)

	if len(doc.Workloads) == 0 {
		t.Error("BENCHMARK.json lists no workload")
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
}
