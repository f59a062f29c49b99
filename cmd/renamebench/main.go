// Command renamebench regenerates the reproduction experiments: every
// table (T1-T7) and figure (F1-F3, F5, F7) recorded in EXPERIMENTS.md; the
// retired F4 and F6 keep their IDs unused. Experiments that exercise the
// concurrent library select their namers through the renaming driver
// registry (renaming.Open's DSN surface). A fixed -seed reproduces every
// table byte for byte except F7, which races real goroutines.
//
// Usage:
//
//	renamebench                 # run everything with the default seed
//	renamebench -exp T1,F1      # run selected experiments
//	renamebench -quick          # smaller sweeps (seconds instead of minutes)
//	renamebench -seed 7         # change the master seed
//	renamebench -csv results/   # additionally write one CSV per experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "renamebench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("renamebench", flag.ContinueOnError)
	var (
		expList = fs.String("exp", "all", "comma-separated experiment ids (T1..T7, F1..F3, F5, F7) or 'all'")
		seed    = fs.Uint64("seed", 1, "master seed; fixed seed => identical tables (F7 races goroutines)")
		quick   = fs.Bool("quick", false, "smaller sweeps for smoke runs")
		csvDir  = fs.String("csv", "", "directory to also write per-experiment CSVs into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var selected []harness.Experiment
	if *expList == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(id)
			exp, ok := harness.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, exp)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	cfg := harness.RunConfig{Seed: *seed, Quick: *quick}
	for _, exp := range selected {
		start := time.Now()
		table, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		if err := table.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "[%s completed in %v]\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, exp.ID+".csv"))
			if err != nil {
				return err
			}
			if err := table.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
