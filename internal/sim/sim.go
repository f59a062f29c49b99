// Package sim executes the renaming algorithms under an adversarial
// scheduler, in lock step, counting exactly the shared-memory steps that
// the paper's complexity measure charges.
//
// Each simulated process runs the *real* algorithm code (internal/core) as
// a coroutine (iter.Pull): every Env.TAS call yields the location it wants
// to access and resumes only when the adversary schedules it. A coroutine
// runs only while the scheduler resumes it, so at any moment at most one
// process is executing and runs are fully deterministic given a seed,
// adversary, and algorithm — and the adversary observes pending operations
// (including the outcome of coin flips) before choosing, which is
// precisely the paper's strong adaptive adversary. A crash stops a
// process's coroutine at its pending step; the algorithm code itself stays
// crash-oblivious.
package sim

import (
	"errors"
	"fmt"
	"iter"

	"repro/internal/core"
	"repro/internal/tas"
	"repro/internal/xrand"
)

// NoName mirrors core.NoName for callers that only import sim.
const NoName = core.NoName

// Action is one adversary decision: optionally crash some ready processes,
// then schedule one ready process to take its pending shared-memory step.
// Step must name a ready process unless every process crashed.
type Action struct {
	Crash []int // pids to crash before the step; may be nil
	Step  int   // pid to schedule; -1 means "only crashes this turn"
}

// Adversary chooses the interleaving. Implementations that only look at
// View.Ready and their own randomness are oblivious adversaries; those that
// inspect pending operations or memory are strong (adaptive) adversaries.
type Adversary interface {
	Next(v *View) Action
}

// Event describes one executed shared-memory step, for tracing.
type Event struct {
	PID        int
	Loc        int
	Won        bool
	ProcStep   int   // 1-based step index within the process
	GlobalStep int64 // 1-based step index within the execution
}

// Config describes one simulated execution.
type Config struct {
	// N is the number of participating processes.
	N int
	// Algorithm is shared by all processes (the usual case).
	Algorithm core.Algorithm
	// AlgorithmFor, if set, overrides Algorithm per process (used to mix
	// algorithm instances; exactly one of the two must be non-nil).
	AlgorithmFor func(pid int) core.Algorithm
	// Adversary schedules the execution. Defaults to a uniformly random
	// (oblivious) scheduler.
	Adversary Adversary
	// Seed drives all randomness: process coins, adversary coins.
	Seed uint64
	// Space backs the shared memory. Defaults to tas.NewSparse(), which
	// supports the unbounded adaptive algorithms.
	Space tas.Space
	// MaxSteps aborts executions that exceed this many total steps
	// (a safety net against scheduling bugs). Defaults to 1<<40.
	MaxSteps int64
	// Trace, if non-nil, receives every executed step.
	Trace func(Event)
}

// Result summarizes a simulated execution.
type Result struct {
	// Names[p] is process p's acquired name, or NoName if it crashed or
	// its (backup-free) algorithm failed.
	Names []int
	// Steps[p] counts process p's shared-memory steps.
	Steps []int
	// Crashed[p] reports whether the adversary crashed process p.
	Crashed []bool
	// TotalSteps is the execution's total step complexity (work).
	TotalSteps int64
}

// MaxSteps returns the maximum individual step complexity.
func (r *Result) MaxSteps() int {
	maxSteps := 0
	for _, s := range r.Steps {
		if s > maxSteps {
			maxSteps = s
		}
	}
	return maxSteps
}

// MaxName returns the largest acquired name, or NoName if none.
func (r *Result) MaxName() int {
	maxName := NoName
	for _, u := range r.Names {
		if u > maxName {
			maxName = u
		}
	}
	return maxName
}

// UniqueNames verifies the renaming safety property: no two non-crashed,
// successful processes share a name. It returns an error describing the
// first violation.
func (r *Result) UniqueNames() error {
	seen := make(map[int]int, len(r.Names))
	for p, u := range r.Names {
		if u == NoName {
			continue
		}
		if q, dup := seen[u]; dup {
			return fmt.Errorf("sim: processes %d and %d both hold name %d", q, p, u)
		}
		seen[u] = p
	}
	return nil
}

// crashSignal is the sentinel panic used to unwind a crashed process out of
// the algorithm code.
type crashSignal struct{}

// proc is the scheduler-side handle of one simulated process.
type proc struct {
	next func() (int, bool) // resume until the next pending TAS or the end
	stop func()             // crash: the pending TAS panics crashSignal
	// pending is the location of the posted-but-not-executed TAS request;
	// valid iff ready. won is the outcome of the last executed one.
	pending int
	ready   bool
	won     bool
	steps   int
}

// simEnv implements core.Env for one simulated process.
type simEnv struct {
	p     *proc
	yield func(int) bool
	rng   *xrand.Rand
}

func (e *simEnv) TAS(loc int) bool {
	if !e.yield(loc) {
		panic(crashSignal{})
	}
	return e.p.won
}

func (e *simEnv) Intn(n int) int { return e.rng.Intn(n) }

// errInvalidAction reports an adversary scheduling a non-ready process.
var errInvalidAction = errors.New("sim: adversary scheduled a process that is not ready")

// Run executes cfg to completion (all processes named, crashed, or failed)
// and returns the execution summary.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: N = %d, need >= 1", cfg.N)
	}
	algFor := cfg.AlgorithmFor
	if algFor == nil {
		if cfg.Algorithm == nil {
			return nil, errors.New("sim: no algorithm configured")
		}
		algFor = func(int) core.Algorithm { return cfg.Algorithm }
	}
	if cfg.Space == nil {
		cfg.Space = tas.NewSparse()
	}
	if cfg.Adversary == nil {
		cfg.Adversary = uniformAdversary{}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1 << 40
	}

	res := &Result{
		Names:   make([]int, cfg.N),
		Steps:   make([]int, cfg.N),
		Crashed: make([]bool, cfg.N),
	}
	procs := make([]*proc, cfg.N)
	for p := range procs {
		res.Names[p] = NoName
		procs[p] = &proc{}
	}

	view := &View{
		procs: procs,
		space: cfg.Space,
		rng:   xrand.NewStream(cfg.Seed, ^uint64(0)),
		pos:   make([]int, cfg.N),
	}
	for i := range view.pos {
		view.pos[i] = -1
	}

	// resume runs process p until it posts its next request or terminates,
	// keeping the view's ready-set current. Membership updates are O(1)
	// (swap-remove), so the scheduler's per-step cost is independent of n.
	resume := func(p int) {
		pr := procs[p]
		pr.ready = false // a panic out of next leaves nothing to kill
		loc, ok := pr.next()
		pr.pending, pr.ready = loc, ok
		if ok {
			view.addReady(p)
		} else {
			view.removeReady(p)
		}
	}

	// kill crashes a ready process.
	kill := func(p int) {
		pr := procs[p]
		pr.stop()
		if !res.Crashed[p] {
			// The algorithm swallowed the crash panic; that would be a
			// bug in this repository, not in the adversary.
			panic("sim: process survived a crash")
		}
		pr.ready = false
		view.removeReady(p)
	}
	// Abort path (an error or a panic): no coroutine outlives Run.
	defer func() {
		for p, pr := range procs {
			if pr.ready {
				kill(p)
			}
		}
	}()

	// Each process is a coroutine running the unmodified algorithm. It runs
	// up to its first shared-memory step before the next one is created,
	// so the ready set starts in pid order and a seed replays the same
	// execution.
	for p, pr := range procs {
		pr.next, pr.stop = iter.Pull(func(yield func(int) bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, isCrash := r.(crashSignal); !isCrash {
						panic(r)
					}
					res.Crashed[p] = true
				}
			}()
			env := &simEnv{p: pr, yield: yield, rng: xrand.NewStream(cfg.Seed, uint64(p))}
			res.Names[p] = algFor(p).GetName(env)
		})
		resume(p)
	}

	for {
		if len(view.ready) == 0 {
			return res, nil
		}
		act := cfg.Adversary.Next(view)
		if act.Step == -1 && len(act.Crash) == 0 {
			return nil, errors.New("sim: adversary made no progress (no step, no crash)")
		}
		for _, c := range act.Crash {
			if c < 0 || c >= cfg.N || !procs[c].ready {
				return nil, fmt.Errorf("sim: adversary crashed invalid process %d", c)
			}
			kill(c)
		}
		if act.Step == -1 {
			continue
		}
		if act.Step < 0 || act.Step >= cfg.N || !procs[act.Step].ready {
			return nil, errInvalidAction
		}
		pr := procs[act.Step]
		won := cfg.Space.TAS(pr.pending)
		pr.steps++
		res.Steps[act.Step]++
		res.TotalSteps++
		view.step = res.TotalSteps
		if cfg.Trace != nil {
			cfg.Trace(Event{
				PID:        act.Step,
				Loc:        pr.pending,
				Won:        won,
				ProcStep:   pr.steps,
				GlobalStep: res.TotalSteps,
			})
		}
		if res.TotalSteps > cfg.MaxSteps {
			return nil, fmt.Errorf("sim: exceeded MaxSteps = %d", cfg.MaxSteps)
		}
		pr.won = won
		resume(act.Step)
	}
}

// View is the adversary's window into the execution. Strong adversaries may
// use every method; oblivious adversaries must restrict themselves to
// Ready, N, GlobalStep and Rand (this is a documentation contract — the
// type system cannot cheaply enforce it).
type View struct {
	procs []*proc
	space tas.Space
	rng   *xrand.Rand
	step  int64
	// ready is maintained incrementally (swap-remove), so its order is
	// unspecified but deterministic for a fixed execution. pos[pid] is the
	// pid's index in ready, or -1.
	ready []int
	pos   []int
}

func (v *View) addReady(pid int) {
	if v.pos[pid] != -1 {
		return
	}
	v.pos[pid] = len(v.ready)
	v.ready = append(v.ready, pid)
}

func (v *View) removeReady(pid int) {
	i := v.pos[pid]
	if i == -1 {
		return
	}
	last := len(v.ready) - 1
	moved := v.ready[last]
	v.ready[i] = moved
	v.pos[moved] = i
	v.ready = v.ready[:last]
	v.pos[pid] = -1
}

// Ready returns the pids with a pending shared-memory step, in an
// unspecified but deterministic order. The returned slice is valid until
// the next scheduler turn and must not be mutated.
func (v *View) Ready() []int { return v.ready }

// IsReady reports whether pid has a pending shared-memory step.
func (v *View) IsReady(pid int) bool {
	return pid >= 0 && pid < len(v.procs) && v.procs[pid].ready
}

// N returns the number of processes in the execution.
func (v *View) N() int { return len(v.procs) }

// Pending returns the location of pid's pending TAS. Strong adversaries
// only. It panics if pid is not ready.
func (v *View) Pending(pid int) int {
	pr := v.procs[pid]
	if !pr.ready {
		panic(fmt.Sprintf("sim: Pending(%d): process not ready", pid))
	}
	return pr.pending
}

// StepsTaken returns how many steps pid has executed.
func (v *View) StepsTaken(pid int) int { return v.procs[pid].steps }

// GlobalStep returns the number of steps executed so far in the run.
func (v *View) GlobalStep() int64 { return v.step }

// IsSet reports whether TAS location loc has been won already. Strong
// adversaries only.
func (v *View) IsSet(loc int) bool {
	type reader interface{ IsSet(int) bool }
	r, ok := v.space.(reader)
	if !ok {
		return false
	}
	return r.IsSet(loc)
}

// Rand is the adversary's private randomness stream.
func (v *View) Rand() *xrand.Rand { return v.rng }

// uniformAdversary is the default scheduler: a uniformly random ready
// process each turn (an oblivious adversary).
type uniformAdversary struct{}

func (uniformAdversary) Next(v *View) Action {
	ready := v.Ready()
	return Action{Step: ready[v.Rand().Intn(len(ready))]}
}
