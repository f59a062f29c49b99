package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperimentQuick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "T4", "-quick", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"== T4:", "claim:", "completed in"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "T99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "T4", "-quick", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "T4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "n,beta,runs") {
		t.Fatalf("unexpected CSV header: %q", string(data[:40]))
	}
}

// TestRunDeterministicOutput: every simulator-backed experiment renders
// the same bytes twice for one seed. F4, F6 and F7 race real goroutines
// and are schedule-dependent, so they are not in the table.
func TestRunDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("renders eleven quick experiments twice")
	}
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "F1", "F2", "F3", "F5"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			render := func() string {
				var out bytes.Buffer
				if err := run([]string{"-exp", id, "-quick", "-seed", "9"}, &out); err != nil {
					t.Fatal(err)
				}
				// Strip the timing line, which legitimately varies.
				var kept []string
				for _, line := range strings.Split(out.String(), "\n") {
					if !strings.HasPrefix(line, "["+id+" completed") {
						kept = append(kept, line)
					}
				}
				return strings.Join(kept, "\n")
			}
			if a, b := render(), render(); a != b {
				t.Fatalf("same seed produced different tables:\n%s\n---\n%s", a, b)
			}
		})
	}
}
