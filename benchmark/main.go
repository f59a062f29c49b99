// Command benchmark is the repository's one benchmark: five workloads,
// six end-to-end metrics each, and a per-layer ledger from a separate
// traced run. BENCHMARK.json at the repository root names the workloads,
// the metrics, their units and their regression bounds; README.md in
// this directory says why each exists.
//
//	go run -C benchmark . --workload renew-bin-pipelined --seed 1 --seconds 16 --trace 0
//	go run -C benchmark . --seed 1 --trace 1            # all five, with the ledger
//	go run -C benchmark . -aa 10 --seed 1               # A/A noise table against the bounds
//	go run -C benchmark . -smoke                        # 1 s windows, functional only
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}; the exit code is
// non-zero when any output was wrong.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/wire"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	aa       int
	smoke    bool
}

func main() {
	// The traced run's loopback depth is this same program started again
	// as a server (see loopback.go); the parent says so in the environment
	// so that the command line stays the contract's.
	if cpu, ok := os.LookupEnv(spinEnv); ok {
		n, _ := strconv.Atoi(cpu)
		fmt.Fprintln(os.Stderr, "benchmark spinner:", spin(n))
		os.Exit(1)
	}
	if dir, ok := os.LookupEnv(loopbackEnv); ok {
		if err := serveLoopback(dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark loopback:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all five in order, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = follow the untraced window with the traced replay and report the per-layer rows")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this CSV file at exit (with --workload)")
	flag.IntVar(&o.aa, "aa", 0, "A/A mode: run the suite N times on this tree and compare the halves against the bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "1-second windows with the traced replay: a functional pass, not a measurement")
	flag.Parse()
	// Whatever ends the run — an error, a panic, a signal — every process
	// started is stopped and waited for first.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanUp()
		os.Exit(130)
	}()
	err := func() (err error) {
		defer cleanUp()
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		return run(o)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRepoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.smoke {
		o.seconds, o.trace = 1, 1
	}
	if o.workload != "" && !slices.Contains(workloadOrder, o.workload) {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadOrder)
	}
	if o.aa > 0 {
		return runAA(spec, o)
	}
	if o.workload == "" {
		// Every workload is measured in a process of its own, as the
		// acceptance driver runs them: peak RSS and the time since process
		// start then belong to that workload alone.
		wrong := 0
		for _, name := range workloadOrder {
			if _, err := runChild(name, o, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				wrong++
			}
		}
		if wrong > 0 {
			return fmt.Errorf("%d of %d workloads failed", wrong, len(workloadOrder))
		}
		return nil
	}
	var spans *[]span // spans are only kept when they will be written out
	if o.traceOut != "" {
		spans = new([]span)
	}
	rep, err := runWorkload(&env{root: root}, o.workload, o, spans)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	rep.print(os.Stdout)
	if spans != nil {
		if err := writeSpans(o.traceOut, *spans); err != nil {
			return err
		}
	}
	if !rep.Correct {
		return errors.New("wrong outputs: see the VIOLATION lines above")
	}
	return nil
}

// runChild runs one workload in a fresh process of this same program,
// copies what it prints to out (nil = nowhere) and returns its result
// line decoded.
func runChild(name string, o options, out io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace)}
	if o.traceOut != "" {
		args = append(args, "--trace-out", o.traceOut+"."+name+".csv")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if out != nil {
		cmd.Stdout = io.MultiWriter(&buf, out)
	}
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &rep, runErr
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's outcome. Its JSON form is the contract's
// result line; the rest is printed above it for people.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload   string
	stamp      envStamp
	notes      []string
	violations []string
	endToEnd   map[string]float64 // always measured
	perLayer   map[string]float64 // nil unless traced
}

// runWorkload runs one workload's untraced window and, with --trace 1,
// its traced replay. The replay's spans are appended to spans when that
// is non-nil.
func runWorkload(e *env, name string, o options, spans *[]span) (*report, error) {
	var w *window
	rows := map[string]float64{}
	for k := range perLayerUnits {
		rows[k] = 0
	}
	var err error
	if name != wlOneshotRebatching && name != wlOneshotAdaptive {
		if err := e.ensureServer(); err != nil {
			return nil, err
		}
		// While a server runs no CPU halts, and the generator keeps to
		// its own.
		startSpinners()
		pinProcess(os.Getpid(), generatorCPUs())
	}
	// traced follows a finished window with its traced replay and records
	// how long that took beside the window it may be at most a quarter of.
	traced := func(replay func() error) error {
		if o.trace != 1 {
			return nil
		}
		t0 := time.Now()
		err := replay()
		w.note("traced_pass_s=%.2f", time.Since(t0).Seconds())
		return err
	}
	switch name {
	case wlOneshotRebatching, wlOneshotAdaptive:
		if w, err = runOneshot(name, o.seed, o.seconds); err == nil {
			err = traced(func() error { return traceOneshot(name, o.seed, w, rows, spans) })
		}
	case wlRenewBin, wlHeartbeatHTTP:
		run := runRenewBin
		if name == wlHeartbeatHTTP {
			run = runHeartbeatHTTP
		}
		var srv *serverProc
		var walk []wire.Item
		if w, srv, walk, err = run(e, o.seed, o.seconds); err == nil {
			err = traced(func() error { return traceRenew(name, o.seed, srv, walk, w, rows, spans) })
			srv.stop()
		}
	case wlChurnDurable:
		var j *journal
		if w, j, err = runChurnDurable(e, o.seed, o.seconds); err == nil {
			err = traced(func() error { return traceChurn(j, w, rows, spans) })
			os.RemoveAll(j.work)
		}
	}
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:    w.failed == 0,
		Attempted:  w.attempted,
		Failed:     w.failed,
		Metrics:    map[string]metricValue{},
		workload:   name,
		stamp:      stamp(o.seed, o.seconds),
		notes:      w.notes,
		violations: w.violations,
		endToEnd:   w.endToEnd(),
	}
	chosen, units := rep.endToEnd, endToEndUnits
	if o.trace == 1 {
		w.clientRows(rows)
		rep.perLayer = rows
		chosen, units = rows, perLayerUnits
	}
	for k, v := range chosen {
		rep.Metrics[k] = metricValue{Value: v, Unit: units[k]}
	}
	return rep, nil
}

// print writes the human-readable block and, last, the JSON result line.
func (r *report) print(out *os.File) {
	st, _ := json.Marshal(r.stamp)
	fmt.Fprintf(out, "== %s ==\nenv %s\n", r.workload, st)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	printRows := func(kind string, rows map[string]float64, units map[string]string) {
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "%-10s %-40s %16.4f %s\n", kind, k, rows[k], units[k])
		}
	}
	printRows("end_to_end", r.endToEnd, endToEndUnits)
	if r.perLayer != nil {
		printRows("per_layer", r.perLayer, perLayerUnits)
	}
	fmt.Fprintf(out, "ops attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, v := range r.violations {
		fmt.Fprintf(out, "VIOLATION %s\n", v)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(out, "%s\n", line)
}
