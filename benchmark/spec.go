package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// The five workloads, in the order a full run executes them. The names
// are the benchmark's public contract: BENCHMARK.json lists the same
// five and every later issue refers to them.
const (
	wlOneshotRebatching = "oneshot-rebatching"
	wlOneshotAdaptive   = "oneshot-adaptive"
	wlRenewBin          = "renew-bin-pipelined"
	wlChurnDurable      = "churn-durable-bin"
	wlHeartbeatHTTP     = "heartbeat-http-open"
)

var workloadOrder = []string{
	wlOneshotRebatching, wlOneshotAdaptive, wlRenewBin, wlChurnDurable, wlHeartbeatHTTP,
}

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end
// metric may worsen; per-layer rows carry none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// The six end-to-end metrics, the same set on every workload.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"op_p50_us":     "us",
	"op_p90_us":     "us",
	"cpu_us_per_op": "us",
	"rss_mb":        "MB",
}

// perLayerUnits is every per-layer row a traced run prints. A row whose
// layer the workload does not exercise reads 0: the layer did no work on
// that path, which is exactly the "should not move" prediction.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"levelarray.acquire_ns":         "ns",
		"levelarray.release_ns":         "ns",
		"levelarray.probes_per_acquire": "count",
		"lease.renew_ns":                "ns",
		"lease.acquire_ns":              "ns",
		"lease.release_ns":              "ns",
		"lease.rejected_ratio":          "ratio",
		"persist.append_ns":             "ns",
		"persist.bytes_per_op":          "B",
		"persist.fsyncs_per_s":          "1/s",
		"persist.compactions":           "count",
		"persist.recovery_ms":           "ms",
		"service.renew_ns":              "ns",
		"service.churn_ns":              "ns",
		"binproto.decode_ns":            "ns",
		"binproto.encode_ns":            "ns",
		"binproto.bytes_per_op":         "B",
		"wire.json_decode_ns":           "ns",
		"wire.json_encode_ns":           "ns",
		"socket.bin_ns":                 "ns",
		"socket.http_us":                "us",
		"server.sys_cpu_share":          "ratio",
		"server.ctx_switches_per_kop":   "count",
		"leaseclient.bin_call_us":       "us",
		"leaseclient.http_call_us":      "us",
		"window.ops_per_s":              "1/s",
		"window.op_p50_us":              "us",
		"window.op_p90_us":              "us",
		"window.cpu_us_per_op":          "us",
		"client.op_p99_us":              "us",
		"client.op_p999_us":             "us",
		"client.late_p99_us":            "us",
		"client.cpu_us_per_op":          "us",
		"client.samples":                "count",
		"ledger.residual_pct":           "%",
		"trace.overhead_pct":            "%",
	}
	for _, alg := range []string{"rebatching", "adaptive", "fastadaptive"} {
		m["renaming."+alg+".acquire_ns"] = "ns"
		m["renaming."+alg+".open_us"] = "us"
		m["renaming."+alg+".probes_per_acquire"] = "count"
		m["renaming."+alg+".max_name_ratio"] = "ratio"
		m["sim."+alg+".steps_mean"] = "count"
		m["sim."+alg+".steps_max"] = "count"
	}
	return m
}()

// Limits of the benchmark contract. maxBound is the widest bound the
// contract lets a metric have, not the one this benchmark aims for: the
// bounds themselves are derived from the A/A tables (README.md).
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal workload or metric name.
func validName(s string) bool { return nameRE.MatchString(s) }

// validate checks a spec against the contract's limits and against the
// names this program actually emits, so BENCHMARK.json and the code
// cannot drift apart silently.
func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !validName(name) {
			return fmt.Errorf("%s name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	if n := len(s.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads: want 2..%d", n, maxWorkloads)
	}
	if n := len(s.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics: want 1..%d", n, maxEndToEnd)
	}
	if n := len(s.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics: want 1..%d", n, maxPerLayer)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d: want 1..60", s.RunSeconds)
	}
	if len(s.Workloads) != len(workloadOrder) {
		return fmt.Errorf("%d workloads listed, program runs %d", len(s.Workloads), len(workloadOrder))
	}
	for i, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Name != workloadOrder[i] {
			return fmt.Errorf("workload %d is %q, program runs %q", i, w.Name, workloadOrder[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1..200 characters", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, units map[string]string, bounded bool) error {
		if len(defs) != len(units) {
			return fmt.Errorf("%d %s metrics listed, program emits %d", len(defs), kind, len(units))
		}
		for _, d := range defs {
			if err := use(kind, d.Name); err != nil {
				return err
			}
			unit, ok := units[d.Name]
			if !ok {
				return fmt.Errorf("%s metric %q is not emitted by the program", kind, d.Name)
			}
			if d.Unit != unit || !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("%s metric %q: unit %q, program emits %q", kind, d.Name, d.Unit, unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("%s metric %q: better %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) {
				return fmt.Errorf("%s metric %q: bound present=%v, want %v", kind, d.Name, d.Bound != nil, bounded)
			}
			if bounded && (*d.Bound <= 0 || *d.Bound > maxBound) {
				return fmt.Errorf("%s metric %q: bound %v outside (0, %v]", kind, d.Name, *d.Bound, maxBound)
			}
		}
		return nil
	}
	if err := check("end_to_end", s.EndToEnd, endToEndUnits, true); err != nil {
		return err
	}
	return check("per_layer", s.PerLayer, perLayerUnits, false)
}

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
