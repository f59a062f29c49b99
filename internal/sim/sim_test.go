package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tas"
)

func rebatching(t *testing.T, n int) *core.ReBatching {
	t.Helper()
	return core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
}

func TestRunAllProcessesNamed(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 256} {
		res, err := Run(Config{N: n, Algorithm: rebatching(t, n), Seed: 42})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for p, u := range res.Names {
			if u == NoName {
				t.Fatalf("n=%d: process %d unnamed", n, p)
			}
		}
		if res.TotalSteps <= 0 {
			t.Fatalf("n=%d: no steps recorded", n)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{N: 100, Algorithm: rebatching(t, 100), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalSteps != b.TotalSteps {
		t.Fatalf("total steps diverged: %d != %d", a.TotalSteps, b.TotalSteps)
	}
	for p := range a.Names {
		if a.Names[p] != b.Names[p] || a.Steps[p] != b.Steps[p] {
			t.Fatalf("process %d diverged: name %d/%d steps %d/%d",
				p, a.Names[p], b.Names[p], a.Steps[p], b.Steps[p])
		}
	}
}

func TestRunSeedChangesExecution(t *testing.T) {
	a, err := Run(Config{N: 64, Algorithm: rebatching(t, 64), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{N: 64, Algorithm: rebatching(t, 64), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for p := range a.Names {
		if a.Names[p] != b.Names[p] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical name assignments")
	}
}

func TestRunStepAccounting(t *testing.T) {
	res, err := Run(Config{N: 32, Algorithm: rebatching(t, 32), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range res.Steps {
		if s < 1 {
			t.Fatalf("a process took %d steps; every process must take >= 1", s)
		}
		sum += int64(s)
	}
	if sum != res.TotalSteps {
		t.Fatalf("per-process steps sum to %d, TotalSteps = %d", sum, res.TotalSteps)
	}
	if res.MaxSteps() < 1 {
		t.Fatal("MaxSteps < 1")
	}
}

func TestRunTraceMatchesCounters(t *testing.T) {
	var events int64
	wins := 0
	res, err := Run(Config{
		N:         16,
		Algorithm: rebatching(t, 16),
		Seed:      9,
		Trace: func(ev Event) {
			events++
			if ev.GlobalStep != events {
				t.Errorf("trace out of order: got global step %d at event %d", ev.GlobalStep, events)
			}
			if ev.Won {
				wins++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if events != res.TotalSteps {
		t.Fatalf("trace saw %d events, TotalSteps = %d", events, res.TotalSteps)
	}
	// Every process wins exactly once (ReBatching processes stop at their
	// first win).
	if wins != 16 {
		t.Fatalf("trace saw %d wins, want 16", wins)
	}
}

func TestRunWithDenseSpace(t *testing.T) {
	alg := rebatching(t, 50)
	if _, err := Run(Config{N: 50, Algorithm: alg, Seed: 5, Space: tas.NewDense(alg.Namespace())}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAdaptiveUnbounded(t *testing.T) {
	res, err := Run(Config{
		N:         120,
		Algorithm: core.MustAdaptive(core.AdaptiveConfig{Epsilon: 1}),
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxName() > 8*120+64 {
		t.Fatalf("adaptive max name %d not O(k)", res.MaxName())
	}
}

func TestRunFastAdaptiveUnbounded(t *testing.T) {
	res, err := Run(Config{
		N:         120,
		Algorithm: core.MustFastAdaptive(core.FastAdaptiveConfig{}),
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxName() > 16*120+64 {
		t.Fatalf("fast adaptive max name %d not O(k)", res.MaxName())
	}
}

func TestRunMaxStepsAborts(t *testing.T) {
	_, err := Run(Config{N: 64, Algorithm: rebatching(t, 64), Seed: 1, MaxSteps: 3})
	if err == nil {
		t.Fatal("expected MaxSteps error")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{N: 0, Algorithm: rebatching(t, 4)}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Run(Config{N: 4}); err == nil {
		t.Error("missing algorithm accepted")
	}
}

// invalidAdversary schedules pid 0 forever, even after it finishes.
type invalidAdversary struct{}

func (invalidAdversary) Next(v *View) Action {
	return Action{Step: 0}
}

func TestRunRejectsInvalidAdversary(t *testing.T) {
	// With n=2, once process 0 finishes the adversary's fixation on pid 0
	// becomes invalid and Run must error rather than hang.
	_, err := Run(Config{N: 2, Algorithm: rebatching(t, 2), Seed: 1, Adversary: invalidAdversary{}})
	if !errors.Is(err, errInvalidAction) {
		t.Fatalf("got %v, want errInvalidAction", err)
	}
}

// stallingAdversary returns an empty action.
type stallingAdversary struct{}

func (stallingAdversary) Next(v *View) Action { return Action{Step: -1} }

func TestRunRejectsStallingAdversary(t *testing.T) {
	if _, err := Run(Config{N: 2, Algorithm: rebatching(t, 2), Seed: 1, Adversary: stallingAdversary{}}); err == nil {
		t.Fatal("stalling adversary accepted")
	}
}

// crashFirstAdversary crashes process 0 at the first opportunity, then
// schedules randomly.
type crashFirstAdversary struct{ crashed bool }

func (a *crashFirstAdversary) Next(v *View) Action {
	ready := v.Ready()
	if !a.crashed && v.IsReady(0) {
		a.crashed = true
		step := -1
		for _, pid := range ready {
			if pid != 0 {
				step = pid
				break
			}
		}
		return Action{Crash: []int{0}, Step: step}
	}
	return Action{Step: ready[v.Rand().Intn(len(ready))]}
}

func TestRunCrashInjection(t *testing.T) {
	res, err := Run(Config{N: 8, Algorithm: rebatching(t, 8), Seed: 2, Adversary: &crashFirstAdversary{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] {
		t.Fatal("process 0 not marked crashed")
	}
	if res.Names[0] != NoName {
		t.Fatalf("crashed process holds name %d", res.Names[0])
	}
	for p := 1; p < 8; p++ {
		if res.Crashed[p] {
			t.Fatalf("process %d unexpectedly crashed", p)
		}
		if res.Names[p] == NoName {
			t.Fatalf("surviving process %d unnamed", p)
		}
	}
}

func TestRunNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := Run(Config{N: 50, Algorithm: rebatching(t, 50), Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		// The error path must also end every coroutine.
		if _, err := Run(Config{N: 50, Algorithm: rebatching(t, 50), Seed: uint64(i), MaxSteps: 5}); err == nil {
			t.Fatal("expected MaxSteps error")
		}
	}
	// Coroutines end inside Run: nothing is left to wait for.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("coroutines outlived Run: %d goroutines before, %d after", before, after)
	}
}

// faultyAlgorithm panics with a non-crash value after its second step: a
// bug in an algorithm, not an adversary's crash.
type faultyAlgorithm struct{}

var errFaulty = errors.New("faulty algorithm")

func (faultyAlgorithm) GetName(env core.Env) int {
	env.TAS(1000)
	env.TAS(1001)
	panic(errFaulty)
}

func (faultyAlgorithm) Namespace() int { return 1 }

// TestRunAlgorithmPanicReachesCaller: a panic in the algorithm code
// surfaces in Run's caller, which can recover it, and the other processes'
// coroutines do not outlive Run.
func TestRunAlgorithmPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		alg := rebatching(t, 50)
		cfg := Config{N: 50, Seed: uint64(i), AlgorithmFor: func(pid int) core.Algorithm {
			if pid == 7 {
				return faultyAlgorithm{}
			}
			return alg
		}}
		func() {
			defer func() {
				if r := recover(); r != errFaulty {
					t.Fatalf("recovered %v, want %v", r, errFaulty)
				}
			}()
			Run(cfg)
			t.Fatal("Run returned past an algorithm panic")
		}()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("coroutines outlived Run: %d goroutines before, %d after", before, after)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Names: []int{5, NoName, 2},
		Steps: []int{3, 1, 9},
	}
	if got := r.MaxSteps(); got != 9 {
		t.Errorf("MaxSteps = %d, want 9", got)
	}
	if got := r.MaxName(); got != 5 {
		t.Errorf("MaxName = %d, want 5", got)
	}
	if err := r.UniqueNames(); err != nil {
		t.Errorf("UniqueNames: %v", err)
	}
	r.Names[1] = 5
	if err := r.UniqueNames(); err == nil {
		t.Error("duplicate names not detected")
	}
	// Run refuses an execution in which two finished processes share a
	// name, and still returns it.
	res, err := Run(Config{N: 2, Algorithm: sameName{}, Seed: 1})
	if res == nil || err == nil || !strings.Contains(err.Error(), "processes 0 and 1 both hold name 0") {
		t.Errorf("Run over a duplicate-name execution = (%v, %v), want the Result and an error naming pids 0 and 1", res, err)
	}
}

// sameName hands every process name 0 after one step: a broken renaming
// algorithm.
type sameName struct{}

func (sameName) GetName(env core.Env) int {
	env.TAS(0)
	return 0
}

func (sameName) Namespace() int { return 1 }
