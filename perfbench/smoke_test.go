package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"sgb/internal/engine"
)

var workloads = []string{"analytics", "lookups", "ingest"}

// tiny is a workload at smoke-test size: a few hundred rows for a second.
func tiny(t *testing.T, workload string, seed int64) *config {
	t.Helper()
	cfg, err := workloadConfig(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed, cfg.seconds, cfg.workDir = seed, 1, t.TempDir()
	cfg.n, cfg.setups = 600, 1
	return cfg
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs cfg and returns the printed report and its JSON line.
func runTiny(t *testing.T, cfg *config) (string, result) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := run(ctx, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var buf bytes.Buffer
	if err := rep.print(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return out, res
}

// printed reports whether out has a metric line for name with unit.
func printed(out, name, unit string) bool {
	re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+\S+\s+` + regexp.QuoteMeta(unit) + `(\s|$)`)
	return re.MatchString(out)
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, wl, 1)
			cfg.traced = traced
			out, res := runTiny(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", wl, traced, res.Correct, res.Failed, res.Attempted, out)
			}
			want := e2eMetrics
			if traced {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the JSON, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: JSON metric %s = %+v, want unit %s", wl, traced, m.name, got, m.unit)
				}
			}
			names := append(append([]metric(nil), e2eMetrics...),
				metric{name: "p95_ms", unit: "ms"}, metric{name: "error_rate", unit: "ratio"})
			if wl == "ingest" {
				names = append(names, metric{name: "delta_lag_p50_ms", unit: "ms"},
					metric{name: "delta_lag_p95_ms", unit: "ms"}, metric{name: "recovery_s", unit: "s"})
			}
			if traced {
				names = append(names, layerMetrics...)
			}
			for _, m := range names {
				if !printed(out, m.name, m.unit) {
					t.Errorf("%s traced=%v: no line for %s in %s", wl, traced, m.name, m.unit)
				}
			}
			for _, m := range e2eMetrics {
				if res.Metrics[m.name].Value <= 0 && !traced {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wl, m.name, res.Metrics[m.name].Value)
				}
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, b := generate(600, 1), generate(600, 2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 generate the same table")
	}
	if !reflect.DeepEqual(a, generate(600, 1)) {
		t.Fatal("seed 1 generates two different tables")
	}
}

// A wrong answer injected into every other check must count as failed.
func TestWrongAnswerCounts(t *testing.T) {
	for _, wl := range workloads {
		cfg := tiny(t, wl, 3)
		cfg.corruptEvery = 2
		cfg.corrupt = func(res *engine.Result) {
			if len(res.Rows) > 0 {
				res.Rows = res.Rows[1:]
			} else {
				res.RowsAffected--
			}
		}
		out, res := runTiny(t, cfg)
		if res.Correct || res.Failed == 0 || !strings.Contains(out, "error_rate") {
			t.Errorf("%s: injected wrong answers not counted: correct=%v failed=%d of %d\n%s",
				wl, res.Correct, res.Failed, res.Attempted, out)
		}
	}
}

// The metric lists the program prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i])
		}
		if _, err := workloadConfig(w.Name); err != nil {
			t.Error(err)
		}
	}
}
