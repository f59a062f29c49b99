package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tas"
)

// inspectingAdversary exercises every View accessor while scheduling
// round-robin over the ready list.
type inspectingAdversary struct {
	t        *testing.T
	n        int
	sawSteps bool
	sawSet   bool
}

func (a *inspectingAdversary) Next(v *View) Action {
	if v.N() != a.n {
		a.t.Errorf("N() = %d, want %d", v.N(), a.n)
	}
	ready := v.Ready()
	if len(ready) == 0 {
		a.t.Error("Next called with empty ready set")
	}
	gs := v.GlobalStep()
	if gs < 0 {
		a.t.Errorf("GlobalStep() = %d", gs)
	}
	for _, pid := range ready {
		if !v.IsReady(pid) {
			a.t.Errorf("pid %d in Ready() but IsReady false", pid)
		}
		loc := v.Pending(pid)
		if loc < 0 {
			a.t.Errorf("Pending(%d) = %d", pid, loc)
		}
		if v.IsSet(loc) {
			a.sawSet = true
		}
		if v.StepsTaken(pid) > 0 {
			a.sawSteps = true
		}
	}
	return Action{Step: ready[0]}
}

func TestViewAccessors(t *testing.T) {
	const n = 64
	alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 0.25, T0Override: 1})
	adv := &inspectingAdversary{t: t, n: n}
	if _, err := Run(Config{
		N:         n,
		Algorithm: alg,
		Adversary: adv,
		Seed:      13,
		Space:     tas.NewDense(alg.Namespace()),
	}); err != nil {
		t.Fatal(err)
	}
	if !adv.sawSteps {
		t.Error("StepsTaken never exceeded 0 despite multi-step processes")
	}
	if !adv.sawSet {
		t.Error("IsSet never observed a set location in a dense, contended space")
	}
}

func TestViewPendingPanicsWhenNotReady(t *testing.T) {
	// Build a tiny run and probe Pending on a finished process via a
	// custom adversary that tracks completion.
	var v0 *View
	adv := funcAdversary(func(v *View) Action {
		v0 = v
		return Action{Step: v.Ready()[0]}
	})
	if _, err := Run(Config{N: 1, Algorithm: core.MustReBatching(core.ReBatchingConfig{N: 1, Epsilon: 1}), Adversary: adv, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pending on finished process did not panic")
		}
	}()
	v0.Pending(0) // process 0 has terminated by now
}

// funcAdversary adapts a function to the Adversary interface.
type funcAdversary func(v *View) Action

func (f funcAdversary) Next(v *View) Action { return f(v) }

func TestViewIsSetWithoutReader(t *testing.T) {
	// A space without IsSet support must report false rather than panic.
	v := &View{space: nonReadableSpace{}}
	if v.IsSet(3) {
		t.Fatal("IsSet on non-readable space returned true")
	}
}

type nonReadableSpace struct{}

func (nonReadableSpace) TAS(int) bool { return true }
func (nonReadableSpace) Len() int     { return tas.Unbounded }

// TestAlgorithmForMixesAlgorithms runs two different algorithms in one
// execution sharing one TAS space — half the processes scan linearly from
// the top of the namespace, half run ReBatching — and uniqueness must
// still hold because it derives from TAS alone.
func TestAlgorithmForMixesAlgorithms(t *testing.T) {
	const n = 64
	reb := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
	res, err := Run(Config{
		N: n,
		AlgorithmFor: func(pid int) core.Algorithm {
			if pid%2 == 0 {
				return reb
			}
			return reverseScan{m: reb.Namespace()}
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, u := range res.Names {
		if u == NoName {
			t.Fatalf("process %d unnamed", p)
		}
	}
}

// reverseScan claims the highest free location.
type reverseScan struct{ m int }

func (r reverseScan) GetName(env core.Env) int {
	for x := r.m - 1; x >= 0; x-- {
		if env.TAS(x) {
			return x
		}
	}
	return core.NoName
}

func (r reverseScan) Namespace() int { return r.m }
