package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shortSpec is the named workload with every budget cut to 30M
// instructions: the interval oracle suite's budget, the shortest at which
// its error bounds are stated.
func shortSpec(t *testing.T, name string) *spec {
	t.Helper()
	s, err := newSpec(name, 7)
	if err != nil {
		t.Fatal(err)
	}
	for app := range s.budget {
		s.budget[app] = 30_000_000
	}
	return s
}

// TestSmoke runs each workload's timed and traced paths on short
// budgets: every operation must pass its checks, and every metric
// BENCHMARK.json names must be reported.
func TestSmoke(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workload) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bench.Workload), len(workloadNames))
	}
	for _, w := range bench.Workload {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var log strings.Builder
			res, err := measure(shortSpec(t, w.Name), 0, &log)
			if err != nil {
				t.Fatal(err)
			}
			assertResult(t, res, bench.EndToEnd, &log)

			log.Reset()
			res, err = measureTraced(shortSpec(t, w.Name), t.TempDir(), &log)
			if err != nil {
				t.Fatal(err)
			}
			assertResult(t, res, bench.PerLayer, &log)
		})
	}
}

func assertResult(t *testing.T, res result, want []struct{ Name, Unit string }, log *strings.Builder) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, log)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
}
