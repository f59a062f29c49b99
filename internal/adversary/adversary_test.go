package adversary

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func rebatching(t *testing.T, n int) *core.ReBatching {
	t.Helper()
	return core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
}

// runUnder executes n ReBatching processes under adv and returns the result.
func runUnder(t *testing.T, n int, adv sim.Adversary, seed uint64) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{N: n, Algorithm: rebatching(t, n), Adversary: adv, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllAdversariesCompleteCorrectly(t *testing.T) {
	const n = 128
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			adv, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res := runUnder(t, n, adv, 17)
			for p, u := range res.Names {
				if u == sim.NoName {
					t.Fatalf("process %d unnamed under %s", p, name)
				}
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown adversary accepted")
	}
}

func TestRoundRobinIsFair(t *testing.T) {
	// Under round-robin every process gets scheduled before any process is
	// scheduled twice, so the spread of step counts is minimal: at the end,
	// counts differ only by completion times. Check the schedule is valid
	// and that no process is starved (all have >= 1 step).
	res := runUnder(t, 64, &RoundRobin{}, 3)
	for p, s := range res.Steps {
		if s < 1 {
			t.Fatalf("process %d starved", p)
		}
	}
}

func TestLayeredCountsLayers(t *testing.T) {
	var layers []int
	adv := &Layered{OnLayer: func(layer, active int) {
		layers = append(layers, active)
	}}
	res := runUnder(t, 256, adv, 5)
	if adv.Layer() < 2 {
		t.Fatalf("execution finished in %d layers; expected at least 2", adv.Layer())
	}
	if len(layers) != adv.Layer() {
		t.Fatalf("OnLayer fired %d times, Layer() = %d", len(layers), adv.Layer())
	}
	// Layer occupancy must be non-increasing: processes only leave.
	for i := 1; i < len(layers); i++ {
		if layers[i] > layers[i-1] {
			t.Fatalf("layer %d grew: %d -> %d", i, layers[i-1], layers[i])
		}
	}
	if layers[0] != 256 {
		t.Fatalf("first layer saw %d active, want 256", layers[0])
	}
	// In a layered schedule every live process steps once per layer, so the
	// max individual step count equals the number of layers it survived.
	if res.MaxSteps() > adv.Layer() {
		t.Fatalf("max steps %d exceeds layer count %d", res.MaxSteps(), adv.Layer())
	}
}

func TestCollisionSeekerForcesMoreWork(t *testing.T) {
	// The strong adversary should extract at least as much total work as a
	// random schedule on the same workload, on average. Compare sums over a
	// few seeds to keep the test deterministic and robust.
	const n = 256
	var randomTotal, strongTotal int64
	for seed := uint64(0); seed < 5; seed++ {
		randomTotal += runUnder(t, n, Random{}, seed).TotalSteps
		strongTotal += runUnder(t, n, &CollisionSeeker{}, seed).TotalSteps
	}
	if strongTotal < randomTotal {
		t.Logf("collision seeker total %d < random total %d (heuristic, not guaranteed)", strongTotal, randomTotal)
	}
	if strongTotal == 0 || randomTotal == 0 {
		t.Fatal("no work recorded")
	}
}

func TestLaggardFirstCompletes(t *testing.T) {
	res := runUnder(t, 128, LaggardFirst{}, 9)
	if res.TotalSteps < 128 {
		t.Fatalf("total steps %d < n", res.TotalSteps)
	}
}

func TestCrashingInjectsExactlyF(t *testing.T) {
	const n, f = 64, 16
	adv := &Crashing{Inner: Random{}, F: f, Every: 3}
	res, err := sim.Run(sim.Config{N: n, Algorithm: rebatching(t, n), Adversary: adv, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for p, c := range res.Crashed {
		if !c {
			continue
		}
		crashed++
		if res.Names[p] != sim.NoName {
			t.Fatalf("crashed process %d holds name %d", p, res.Names[p])
		}
	}
	if crashed != f {
		t.Fatalf("crashed %d processes, want %d", crashed, f)
	}
	if adv.Crashed() != f {
		t.Fatalf("Crashed() = %d, want %d", adv.Crashed(), f)
	}
	// All survivors must terminate with unique names (wait-freedom under
	// crashes).
	for p := range res.Names {
		if !res.Crashed[p] && res.Names[p] == sim.NoName {
			t.Fatalf("surviving process %d unnamed", p)
		}
	}
}

func TestCrashingLeavesALiveProcess(t *testing.T) {
	// Even with F = n the wrapper must keep at least one process alive so
	// the execution terminates.
	const n = 8
	adv := &Crashing{Inner: Random{}, F: n, Every: 1}
	res, err := sim.Run(sim.Config{N: n, Algorithm: rebatching(t, n), Adversary: adv, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for p := range res.Names {
		if res.Names[p] != sim.NoName {
			named++
		}
	}
	if named == 0 {
		t.Fatal("every process crashed; none named")
	}
}

func TestAdversariesDeterministic(t *testing.T) {
	for _, name := range Names() {
		a1, _ := ByName(name)
		a2, _ := ByName(name)
		r1 := runUnder(t, 64, a1, 33)
		r2 := runUnder(t, 64, a2, 33)
		if r1.TotalSteps != r2.TotalSteps {
			t.Errorf("%s: nondeterministic total steps %d vs %d", name, r1.TotalSteps, r2.TotalSteps)
		}
		for p := range r1.Names {
			if r1.Names[p] != r2.Names[p] {
				t.Errorf("%s: nondeterministic name for %d", name, p)
				break
			}
		}
	}
}
