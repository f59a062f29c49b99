package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke is the -smoke pass: the program built and run as the
// acceptance driver runs it, every workload end to end with a one-second
// window and its traced replay, each in its own process. It builds and
// spawns servers, so it is skipped under -short; the numbers are not
// checked, only that every output was verified correct and every named
// per-layer row was reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns renamed; skipped under -short")
	}
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-smoke").Output()
	if err != nil {
		t.Fatalf("benchmark -smoke: %v\n%s", err, out)
	}
	results := 0
	for _, line := range bytes.Split(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("{")) {
			continue
		}
		var rep report
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		results++
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
		}
		for k, unit := range perLayerUnits {
			if v, ok := rep.Metrics[k]; !ok || v.Unit != unit {
				t.Errorf("per-layer row %s: got %+v, want unit %s", k, v, unit)
			}
		}
	}
	if results != len(workloadOrder) {
		t.Errorf("%d result lines, want %d", results, len(workloadOrder))
	}
}
