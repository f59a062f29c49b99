package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "renew-bin-pipelined", "renaming.rebatching.acquire_ns", "a", "9lives", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "-lead", ".lead", "has space", "slash/y", "ünï", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// readSpec loads the committed BENCHMARK.json without validating it.
func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// The committed BENCHMARK.json must name exactly what the program emits.
func TestCommittedSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", s.Paths)
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

func TestValidateRejects(t *testing.T) {
	bound := func(v float64) *float64 { return &v }
	cases := map[string]func(s *benchSpec){
		"workload renamed":  func(s *benchSpec) { s.Workloads[0].Name = "oneshot" },
		"workload bad name": func(s *benchSpec) { s.Workloads[0].Name = "one shot" },
		"workload missing":  func(s *benchSpec) { s.Workloads = s.Workloads[:4] },
		"one workload":      func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"nine workloads": func(s *benchSpec) {
			s.Workloads = append(s.Workloads, append(s.Workloads[:0:0], s.Workloads[:4]...)...)
		},
		"long why":              func(s *benchSpec) { s.Workloads[1].Why = strings.Repeat("y", 201) },
		"duplicate metric":      func(s *benchSpec) { s.EndToEnd[1] = s.EndToEnd[0] },
		"unknown metric":        func(s *benchSpec) { s.EndToEnd[1].Name = "ops_per_minute" },
		"wrong unit":            func(s *benchSpec) { s.EndToEnd[1].Unit = "ops" },
		"bound over cap":        func(s *benchSpec) { s.EndToEnd[1].Bound = bound(0.26) },
		"bound missing":         func(s *benchSpec) { s.EndToEnd[1].Bound = nil },
		"bound on per-layer":    func(s *benchSpec) { s.PerLayer[0].Bound = bound(0.05) },
		"better sideways":       func(s *benchSpec) { s.PerLayer[0].Better = "sideways" },
		"per-layer row dropped": func(s *benchSpec) { s.PerLayer = s.PerLayer[1:] },
		"seventeen end-to-end":  func(s *benchSpec) { s.EndToEnd = make([]metricDef, 17) },
		"too many per-layer":    func(s *benchSpec) { s.PerLayer = make([]metricDef, 129) },
		"run_seconds zero":      func(s *benchSpec) { s.RunSeconds = 0 },
		"run_seconds over":      func(s *benchSpec) { s.RunSeconds = 61 },
		"end-to-end name clash": func(s *benchSpec) { s.PerLayer[0].Name = "setup_s" },
	}
	for name, mutate := range cases {
		s := readSpec(t)
		mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every name the program can emit is itself a legal name with a legal
// unit, and the counts fit the contract.
func TestEmittedNamesAreLegal(t *testing.T) {
	if len(workloadOrder) > maxWorkloads || len(endToEndUnits) > maxEndToEnd || len(perLayerUnits) > maxPerLayer {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer: over the contract's limits",
			len(workloadOrder), len(endToEndUnits), len(perLayerUnits))
	}
	for _, units := range []map[string]string{endToEndUnits, perLayerUnits} {
		for name, unit := range units {
			if !validName(name) || !unitRE.MatchString(unit) {
				t.Errorf("metric %q unit %q is not legal", name, unit)
			}
		}
	}
	for _, w := range workloadOrder {
		if !validName(w) {
			t.Errorf("workload %q is not a legal name", w)
		}
	}
}
