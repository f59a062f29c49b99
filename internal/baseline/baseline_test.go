package baseline

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

// runAll executes n processes of alg under the default (random oblivious)
// simulator schedule and asserts unique, in-range names.
func runAll(t *testing.T, alg core.Algorithm, n int, seed uint64) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{N: n, Algorithm: alg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for p, u := range res.Names {
		if u == core.NoName {
			t.Fatalf("process %d unnamed", p)
		}
		if u < 0 || u >= alg.Namespace() {
			t.Fatalf("process %d: name %d outside namespace %d", p, u, alg.Namespace())
		}
	}
	return res
}

func TestUniformNamesEveryProcess(t *testing.T) {
	for _, n := range []int{1, 2, 16, 200} {
		runAll(t, MustUniform(n, 1, 0), n, 4)
	}
}

func TestUniformFallbackTerminates(t *testing.T) {
	// A probe cap of 1 forces nearly everyone through the scan fallback.
	runAll(t, MustUniform(100, 0.2, 1), 100, 9)
}

func TestUniformValidation(t *testing.T) {
	if _, err := NewUniform(0, 1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewUniform(4, 0, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestLinearScanTightNamespace(t *testing.T) {
	const n = 150
	l := MustLinearScan(n)
	if l.Namespace() != n {
		t.Fatalf("Namespace = %d, want %d (tight)", l.Namespace(), n)
	}
	res := runAll(t, l, n, 2)
	// With n processes and n names, every name is assigned.
	assigned := make(map[int]bool, n)
	for _, u := range res.Names {
		assigned[u] = true
	}
	if len(assigned) != n {
		t.Fatalf("assigned %d distinct names, want %d", len(assigned), n)
	}
}

func TestLinearScanValidation(t *testing.T) {
	if _, err := NewLinearScan(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestSegScanNamesEveryProcess(t *testing.T) {
	for _, n := range []int{1, 2, 33, 200} {
		runAll(t, MustSegScan(n, 1, 0), n, 6)
	}
}

func TestSegScanCustomSegSize(t *testing.T) {
	runAll(t, MustSegScan(64, 0.5, 4), 64, 8)
}

func TestSegScanValidation(t *testing.T) {
	if _, err := NewSegScan(0, 1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewSegScan(4, -1, 0); err == nil {
		t.Error("eps<0 accepted")
	}
}

// TestF1ShapeUniformGrowsReBatchingFlat is the F1 claim at test scale.
//
// With the paper's literal constants, ReBatching's max steps are dominated
// by the additive t0 = 53 and uniform probing wins at practical n (the
// crossover extrapolates to n ~ 2^53) — EXPERIMENTS.md documents this. The
// *shape* is what the theorems claim: ReBatching's max steps are essentially
// flat in n (log log n + O(1)), uniform's grow like log n. With a tuned t0
// the same shape puts ReBatching strictly below uniform already at n=4096.
func TestF1ShapeUniformGrowsReBatchingFlat(t *testing.T) {
	maxOver := func(alg func(n int) core.Algorithm, n int) int {
		best := 0
		for seed := uint64(0); seed < 3; seed++ {
			if m := runAll(t, alg(n), n, seed).MaxSteps(); m > best {
				best = m
			}
		}
		return best
	}
	uniform := func(n int) core.Algorithm { return MustUniform(n, 1, 0) }
	tuned := func(n int) core.Algorithm {
		return core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1, T0Override: 6})
	}

	uniSmall, uniBig := maxOver(uniform, 256), maxOver(uniform, 4096)
	rebSmall, rebBig := maxOver(tuned, 256), maxOver(tuned, 4096)

	// Uniform grows with n (log-like): strictly more steps at 16x the size.
	if uniBig <= uniSmall {
		t.Errorf("uniform max steps did not grow: %d (n=256) vs %d (n=4096)", uniSmall, uniBig)
	}
	// Tuned ReBatching stays nearly flat: growth bounded by a small additive
	// constant (log log 4096 - log log 256 = 0.58).
	if rebBig > rebSmall+4 {
		t.Errorf("rebatching max steps grew too much: %d (n=256) vs %d (n=4096)", rebSmall, rebBig)
	}
	// And with the tuned constant it beats uniform outright at n=4096.
	if rebBig >= uniBig {
		t.Errorf("tuned rebatching (%d) not below uniform (%d) at n=4096", rebBig, uniBig)
	}
}

// TestBaselinesUniquePropertyQuick property-tests uniqueness across random
// seeds and contentions for each baseline.
func TestBaselinesUniquePropertyQuick(t *testing.T) {
	property := func(seed uint64, rawN uint8) bool {
		n := int(rawN%60) + 1
		for _, alg := range []core.Algorithm{
			MustUniform(n, 1, 0),
			MustLinearScan(n),
			MustSegScan(n, 1, 0),
		} {
			if _, err := sim.Run(sim.Config{N: n, Algorithm: alg, Seed: seed}); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
