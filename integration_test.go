package renaming_test

import (
	"context"
	"testing"

	renaming "repro"
	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tas"
)

// TestCrossDriverSafety runs the same algorithm objects under both
// execution drivers — the adversarial simulator and real goroutines — and
// checks the renaming safety properties in each. This is the integration
// seam the whole design rests on: one algorithm body, two drivers.
func TestCrossDriverSafety(t *testing.T) {
	const n = 256
	builders := []struct {
		name string
		mk   func() core.Algorithm
	}{
		{"rebatching", func() core.Algorithm {
			return core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
		}},
		{"adaptive", func() core.Algorithm {
			return core.MustAdaptive(core.AdaptiveConfig{Epsilon: 1, MaxLevel: core.MaxLevelFor(n)})
		}},
		{"fastadaptive", func() core.Algorithm {
			return core.MustFastAdaptive(core.FastAdaptiveConfig{MaxLevel: core.MaxLevelFor(n)})
		}},
		{"uniform", func() core.Algorithm {
			return baseline.MustUniform(n, 1, 0)
		}},
	}
	advNames := []string{"random", "layered", "collision"}
	for _, bl := range builders {
		for _, advName := range advNames {
			t.Run(bl.name+"/"+advName, func(t *testing.T) {
				t.Parallel()
				alg := bl.mk()
				adv, err := adversary.ByName(advName)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					N:         n,
					Algorithm: alg,
					Adversary: adv,
					Seed:      99,
					Space:     tas.NewDense(alg.Namespace()),
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := res.UniqueNames(); err != nil {
					t.Fatal(err)
				}
				for p, u := range res.Names {
					if u == core.NoName {
						t.Fatalf("process %d unnamed", p)
					}
					if u >= alg.Namespace() {
						t.Fatalf("name %d outside namespace %d", u, alg.Namespace())
					}
				}
			})
		}
	}
}

// TestSimMatchesConcurrentNamespaceUse verifies that the same configuration
// consumes comparable namespace regions under the simulator and under real
// goroutine scheduling (the distribution differs; the support must not).
func TestSimMatchesConcurrentNamespaceUse(t *testing.T) {
	const k = 200
	// Simulated adaptive run.
	simAlg := core.MustAdaptive(core.AdaptiveConfig{Epsilon: 1})
	simRes, err := sim.Run(sim.Config{N: k, Algorithm: simAlg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent adaptive run.
	nm, err := renaming.NewAdaptive(1<<14, renaming.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	maxConc := 0
	done := make(chan int, k)
	for g := 0; g < k; g++ {
		go func() {
			u, err := nm.Acquire(context.Background())
			if err != nil {
				u = -1
			}
			done <- u
		}()
	}
	for g := 0; g < k; g++ {
		u := <-done
		if u < 0 {
			t.Fatal("concurrent Acquire failed")
		}
		if u > maxConc {
			maxConc = u
		}
	}
	// Both drivers must keep names O(k); allow a generous shared constant.
	bound := 16*k + 64
	if simRes.MaxName() > bound {
		t.Errorf("simulated max name %d exceeds %d", simRes.MaxName(), bound)
	}
	if maxConc > bound {
		t.Errorf("concurrent max name %d exceeds %d", maxConc, bound)
	}
}

// TestExhaustiveInterleavingsTwoProcs enumerates every schedule of two
// LinearScan processes (the only algorithm with deterministic probe
// sequences), checking that uniqueness holds under each interleaving.
// This complements the randomized adversaries with exhaustive coverage at
// tiny scale.
func TestExhaustiveInterleavingsTwoProcs(t *testing.T) {
	// Schedules are bitstrings: bit i says which process takes step i+1
	// (when both are ready). With n=2 and LinearScan, executions are at
	// most 3 steps long, so 8 bitstrings cover everything.
	for mask := 0; mask < 8; mask++ {
		adv := &maskAdversary{mask: mask}
		alg := baseline.MustLinearScan(2)
		res, err := sim.Run(sim.Config{N: 2, Algorithm: alg, Adversary: adv, Seed: 0})
		if err != nil {
			t.Fatalf("mask %03b: %v", mask, err)
		}
		if err := res.UniqueNames(); err != nil {
			t.Fatalf("mask %03b: %v", mask, err)
		}
		if res.Names[0] == core.NoName || res.Names[1] == core.NoName {
			t.Fatalf("mask %03b: a process failed: %v", mask, res.Names)
		}
	}
}

// maskAdversary schedules according to a fixed bitstring.
type maskAdversary struct {
	mask int
	turn int
}

func (a *maskAdversary) Next(v *sim.View) sim.Action {
	ready := v.Ready()
	want := (a.mask >> a.turn) & 1
	a.turn++
	for _, pid := range ready {
		if pid == want {
			return sim.Action{Step: pid}
		}
	}
	return sim.Action{Step: ready[0]}
}
