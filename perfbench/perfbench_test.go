package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tinyOptions runs workload on small inputs, two measured jobs, one
// set-up and one layer repetition.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{
		workload:  workload,
		seed:      7,
		seconds:   0.001,
		trace:     trace,
		workdir:   t.TempDir(),
		minJobs:   2,
		setups:    1,
		layerReps: 1,
		sizes: sizes{
			wcParts: 8, wcLines: 50, wcWords: 4, wcVocab: 100,
			sortParts: 8, sortRecords: 200, sortPayload: 20,
			sortBudget:   4 << 10,
			reduceParts:  4,
			simWorkloads: []string{"WordCount", "Sort"},
		},
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
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

// TestCatalogueMatchesBenchmarkFile checks that BENCHMARK.json names
// exactly the workloads and metrics the program emits, with their units.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program has %d", kind, len(file), len(defs))
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload once untraced and
// once traced on tiny inputs and checks that every named metric is
// emitted with its unit, that every output check passed, and that no
// end-to-end metric reads 0.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestCorruptOutputIsCounted corrupts the first measured job's output on
// every workload and checks that it counts as failed.
func TestCorruptOutputIsCounted(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			opts := tinyOptions(t, name, trace)
			opts.corruptJob = 1
			res, err := run(opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Correct || res.Failed != 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d, want false and 1", name, trace, res.Correct, res.Failed)
			}
			if !trace {
				want := float64(res.Attempted-1) / float64(res.Attempted)
				if got := res.Metrics["success_ratio"].Value; got != want {
					t.Errorf("%s: success_ratio %v, want %v", name, got, want)
				}
			}
		}
	}
}
