package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloadNames))
	}
	for k, w := range doc.Workloads {
		if w.Name != workloadNames[k] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", k, w.Name, workloadNames[k])
		}
	}
	check := func(kind string, file []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(defs))
		}
		for k, m := range file {
			d := defs[k]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the program", kind, k, m, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestPercentileCountsSamplesAbove(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i))
	}
	p99, above := percentile(d, 0.99)
	if p99 != 990 || above != 10 {
		t.Fatalf("p99 %v with %d above, want 990 with 10", p99, above)
	}
}
