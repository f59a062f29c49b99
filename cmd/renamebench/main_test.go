package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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

// TestRunUnknownExperiment: the retired F4 and F6 are unknown too.
func TestRunUnknownExperiment(t *testing.T) {
	for _, id := range []string{"T99", "F4", "F6"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", id}, &out); err == nil {
			t.Fatalf("unknown experiment %s accepted", id)
		}
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

// update rewrites the goldens from the current output:
// go test ./cmd/renamebench -run TestRunDeterministicOutput -update
var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden")

// timingLine is the one line of a table's output that varies run to run.
var timingLine = regexp.MustCompile(`(?m)^\[\w+ completed in .*\]\n`)

// TestRunDeterministicOutput: every simulator-backed experiment renders,
// for one seed, the bytes in testdata/<ID>.golden once its timing line is
// stripped. F7 races real goroutines and has no golden.
func TestRunDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("renders eleven quick experiments")
	}
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "F1", "F2", "F3", "F5"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := run([]string{"-exp", id, "-quick", "-seed", "9"}, &out); err != nil {
				t.Fatal(err)
			}
			got := timingLine.ReplaceAllString(out.String(), "")
			golden := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s differs from %s:\n%s\n--- want\n%s", id, golden, got, want)
			}
		})
	}
}
