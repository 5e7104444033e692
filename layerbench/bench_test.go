package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the test checks against.
type benchmarkFile struct {
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

// TestWorkloads runs every workload at its smallest size — the warm-up pass
// and one untraced and one traced timed pass — and checks that every metric
// BENCHMARK.json names is printed with its unit, and that every check
// passed, which includes the exact work counters of each later pass
// repeating those of the first.
func TestWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		t.Run(bw.Name, func(t *testing.T) {
			rep, err := run(config{workload: bw.Name, seed: 1, trace: true, spans: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range bf.PerLayer {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("per-layer %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			e2e := rep.selectMetrics(endToEnd)
			for _, m := range bf.EndToEnd {
				got, ok := e2e[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: printed %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(rep.Metrics) != len(bf.PerLayer) || len(e2e) != len(bf.EndToEnd) {
				t.Errorf("printed %d per-layer and %d end-to-end metrics, BENCHMARK.json names %d and %d",
					len(rep.Metrics), len(e2e), len(bf.PerLayer), len(bf.EndToEnd))
			}
		})
	}
}
