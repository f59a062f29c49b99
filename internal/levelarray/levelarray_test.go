package levelarray

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tas"
	"repro/internal/xrand"
)

// env is a single-threaded core.Env over a TAS space, for direct tests.
type env struct {
	space tas.Space
	rng   *xrand.Rand
}

func (e *env) TAS(loc int) bool { return e.space.TAS(loc) }
func (e *env) Intn(n int) int   { return e.rng.Intn(n) }

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0},
		{N: -3},
		{N: 8, Gamma: -0.5},
		{N: 8, Gamma: math.Inf(1)},
		{N: 8, Gamma: 1e16}, // (1+γ)N would overflow the slot count
		{N: 8, Probes: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := New(Config{N: 1}); err != nil {
		t.Errorf("New(N=1) rejected: %v", err)
	}
}

func TestLayout(t *testing.T) {
	const n, gamma = 64, 1.0
	la := Must(Config{N: n, Gamma: gamma})
	if got, want := la.Levels(), int(math.Floor(math.Log2(n)))+1; got != want {
		t.Fatalf("Levels() = %d, want %d", got, want)
	}
	next := 0
	total := 0
	prev := math.MaxInt
	for i := 0; i < la.Levels(); i++ {
		lo, hi := la.LevelBounds(i)
		if lo != next {
			t.Errorf("level %d starts at %d, want contiguous %d", i, lo, next)
		}
		size := hi - lo
		want := int(math.Ceil((1 + gamma) * float64(n) / float64(int64(1)<<i)))
		if size != want {
			t.Errorf("level %d size = %d, want %d", i, size, want)
		}
		if size > prev {
			t.Errorf("level %d size %d grew past previous %d", i, size, prev)
		}
		prev = size
		next = hi
		total += size
	}
	if total != la.Size() {
		t.Errorf("levels sum to %d, Size() = %d", total, la.Size())
	}
	if la.Size() >= int(2*(1+gamma)*n)+la.Levels() {
		t.Errorf("Size() = %d, want < 2(1+γ)N + rounding = %d", la.Size(), int(2*(1+gamma)*n)+la.Levels())
	}
	// The loose-renaming promise: space is O(N), here at least (1+γ)N and
	// comfortably above 2N so the backup scan can absorb full capacity.
	if la.Size() < 2*n {
		t.Errorf("Size() = %d, want >= 2N = %d", la.Size(), 2*n)
	}
	if la.Namespace() != la.Size() {
		t.Errorf("Namespace() = %d, want Size() = %d", la.Namespace(), la.Size())
	}
}

func TestDefaultsApplied(t *testing.T) {
	la := Must(Config{N: 16})
	// γ defaults to 1: level 0 has 2N slots.
	if lo, hi := la.LevelBounds(0); hi-lo != 32 {
		t.Errorf("default level-0 size = %d, want 32", hi-lo)
	}
	// Probes defaults to 2.
	if got, want := la.MaxProbeSteps(), la.Levels()*2+la.Size(); got != want {
		t.Errorf("MaxProbeSteps() = %d, want %d", got, want)
	}
}

// TestOneShotUnique runs the full one-shot workload through the lock-step
// simulator: N processes, each acquiring once, must end with N distinct
// names inside the namespace.
func TestOneShotUnique(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 256} {
		la := Must(Config{N: n})
		res, err := sim.Run(sim.Config{N: n, Algorithm: la, Seed: uint64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for p, u := range res.Names {
			if u == core.NoName || u >= la.Namespace() {
				t.Fatalf("n=%d: process %d ended with name %d, want a name below %d", n, p, u, la.Namespace())
			}
		}
	}
}

// TestExpectedProbesConstant checks the headline claim in the regime the
// paper targets: full one-shot contention, where average steps per acquire
// must stay a small constant independent of N.
func TestExpectedProbesConstant(t *testing.T) {
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		la := Must(Config{N: n})
		res, err := sim.Run(sim.Config{N: n, Algorithm: la, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		avg := float64(res.TotalSteps) / float64(n)
		// Expected probes ≈ Σ t·(loss rate)^i; with γ=1, t=2 this is well
		// under 4. Allow generous slack for adversarial-free randomness.
		if avg > 6 {
			t.Errorf("n=%d: average steps %.2f, want O(1) <= 6", n, avg)
		}
	}
}

// TestBackupScanFindsLastFreeSlot fills every slot but one and checks the
// linear-scan fallback recovers it, whichever slot it is.
func TestBackupScanFindsLastFreeSlot(t *testing.T) {
	la := Must(Config{N: 8})
	for hole := 0; hole < la.Namespace(); hole += 3 {
		s := tas.NewDense(la.Namespace())
		for i := 0; i < la.Namespace(); i++ {
			if i != hole {
				s.TAS(i)
			}
		}
		e := &env{space: s, rng: xrand.New(uint64(hole))}
		if u := la.GetName(e); u != hole {
			t.Fatalf("hole %d: GetName = %d", hole, u)
		}
	}
}

// TestReleaseReacquire exercises the defining long-lived property in a
// deterministic single-threaded setting: a released slot is immediately
// re-acquirable and uniqueness is never violated.
func TestReleaseReacquire(t *testing.T) {
	la := Must(Config{N: 4})
	s := tas.NewDense(la.Namespace())
	e := &env{space: s, rng: xrand.New(11)}
	held := map[int]bool{}
	for cycle := 0; cycle < 200; cycle++ {
		u := la.GetName(e)
		if u == core.NoName {
			t.Fatalf("cycle %d: exhausted with %d held", cycle, len(held))
		}
		if held[u] {
			t.Fatalf("cycle %d: name %d double-allocated", cycle, u)
		}
		held[u] = true
		if len(held) == 4 {
			// Release an arbitrary held name (map order is fine).
			for v := range held {
				if !s.TryReset(v) {
					t.Fatalf("TryReset(%d) lost on a held name", v)
				}
				delete(held, v)
				break
			}
		}
	}
}

func TestLongLivedInterface(t *testing.T) {
	la := Must(Config{N: 32})
	var ll core.LongLived = la
	if got := ll.MaxConcurrency(); got != 32 {
		t.Fatalf("MaxConcurrency() = %d, want 32", got)
	}
}
