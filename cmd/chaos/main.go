// Command chaos runs named fault-injection scenarios against a real
// renamed server process and checks global lease-safety invariants.
//
// Every random stream — wire faults, crash times, call duplication,
// client jitter — derives from the single -seed flag, so a failing run
// reproduces bit-for-bit from the seed printed in its report.
//
//	go run ./cmd/chaos -scenario kitchen-sink -seed 42 -duration 30s
//
// The exit code is the verdict: 0 when every invariant held, 1 on
// violations (inverted by -expect-violations, which is how CI proves
// the harness still catches a seeded regression), 2 on harness errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
)

func main() {
	var (
		scenario  = flag.String("scenario", "", "scenario name (see -list)")
		seed      = flag.Uint64("seed", 42, "master seed; same seed reproduces the same fault schedule")
		duration  = flag.Duration("duration", 30*time.Second, "run length, heal phase included (min 4x scenario TTL)")
		transport = flag.String("transport", "bin", "wire under test: bin or http")
		inject    = flag.String("inject", "", "re-introduce a known-fixed bug (no-call-timeout) to prove detection")
		out       = flag.String("out", "", "write the JSON report here ('-' for stdout)")
		bin       = flag.String("bin", "", "renamed binary to run (default: build ./cmd/renamed into a temp dir)")
		list      = flag.Bool("list", false, "list scenarios and exit")
		expect    = flag.Bool("expect-violations", false, "invert the verdict: exit 0 only if violations were found")
	)
	flag.Parse()

	if *list {
		reg := chaos.Scenarios()
		for _, name := range chaos.ScenarioNames() {
			fmt.Printf("%-14s %s\n", name, reg[name].Description)
		}
		return
	}

	sc, ok := chaos.Scenarios()[*scenario]
	if !ok {
		fmt.Fprintf(os.Stderr, "chaos: unknown scenario %q (use -list)\n", *scenario)
		os.Exit(2)
	}

	binary := *bin
	if binary == "" {
		dir, err := os.MkdirTemp("", "chaos-bin-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		binary = filepath.Join(dir, "renamed")
		fmt.Fprintln(os.Stderr, "chaos: building ./cmd/renamed")
		build := exec.Command("go", "build", "-o", binary, "./cmd/renamed")
		if out, err := build.CombinedOutput(); err != nil {
			fatal(fmt.Errorf("go build ./cmd/renamed: %v\n%s", err, out))
		}
	}

	work, err := os.MkdirTemp("", "chaos-run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := chaos.Run(ctx, sc, chaos.Options{
		Seed:      *seed,
		Duration:  *duration,
		Binary:    binary,
		WorkDir:   work,
		Transport: *transport,
		Inject:    *inject,
		Log:       os.Stderr,
	})
	if err != nil {
		fatal(err)
	}

	rep.Print(os.Stdout)
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		blob = append(blob, '\n')
		if *out == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatal(err)
		}
	}

	if *expect {
		if rep.Pass {
			fmt.Fprintln(os.Stderr, "chaos: expected violations but the run passed — the harness missed the seeded bug")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "chaos: seeded bug detected as expected (%d violations)\n", len(rep.Violations))
		return
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

// fatal reports a harness error and exits 2. internal/chaos errors
// already say "chaos: ", so the prefix is added only where it is missing.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "chaos: %s\n", strings.TrimPrefix(err.Error(), "chaos: "))
	os.Exit(2)
}
