package core

import (
	"testing"

	"repro/internal/tas"
	"repro/internal/xrand"
)

func TestMustConstructorsPanicOnBadConfig(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"rebatching", func() { MustReBatching(ReBatchingConfig{N: 0, Epsilon: 1}) }},
		{"adaptive", func() { MustAdaptive(AdaptiveConfig{Epsilon: -1}) }},
		{"fastadaptive", func() { MustFastAdaptive(FastAdaptiveConfig{MaxLevel: -3}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestLevelsObjectPanicsOutOfRange(t *testing.T) {
	lv := newLevels(1, 3, 0)
	for _, i := range []int{0, -1, maxAdaptiveLevel + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("object(%d) did not panic", i)
				}
			}()
			lv.object(i)
		}()
	}
}

func TestFastAdaptiveEnsurePanicsPastAddressSpace(t *testing.T) {
	f := MustFastAdaptive(FastAdaptiveConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("ensure past the address space did not panic")
		}
	}()
	f.ensure(maxAdaptiveLevel)
}

// TestAdaptiveSpaceUpperBound pins a bounded collection's space: its
// namespace is every TAS location it occupies, O(2^MaxLevel).
func TestAdaptiveSpaceUpperBound(t *testing.T) {
	a := MustAdaptive(AdaptiveConfig{Epsilon: 1, MaxLevel: 8})
	// The bounded collection occupies Sum_{i<8} 2^(i+1) + m_top locations.
	wantTop := 0
	for i := 1; i < 8; i++ {
		wantTop += 1 << (i + 1)
	}
	wantTop += 1 << 9 // m_8 = 2*2^8
	if got := a.Namespace(); got != wantTop {
		t.Fatalf("Namespace = %d, want %d", got, wantTop)
	}
}

func TestFastAdaptiveNamespacePanicsWhenUnbounded(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Namespace() on unbounded FastAdaptive did not panic")
		}
	}()
	MustFastAdaptive(FastAdaptiveConfig{}).Namespace()
}

// TestAdaptiveBoundedOverCapacity drives a bounded Adaptive past its
// configured contention: the top object's backup phase must keep serving
// names until its namespace is truly full, then GetName reports NoName.
func TestAdaptiveBoundedOverCapacity(t *testing.T) {
	a := MustAdaptive(AdaptiveConfig{Epsilon: 1, MaxLevel: 3})
	space := tas.NewSparse()
	served := 0
	for p := 0; ; p++ {
		env := &testEnv{space: space, rng: xrand.NewStream(4, uint64(p))}
		if a.GetName(env) == NoName {
			break
		}
		served++
		if served > a.Namespace() {
			t.Fatal("served more names than the address space holds")
		}
	}
	// Every location of the top object must be claimable: at least the top
	// object's namespace is served even under collisions below.
	if served < 16 { // top object R_3 alone holds 16 names
		t.Fatalf("served only %d names before exhaustion", served)
	}
}

// TestFastAdaptiveBoundedOverCapacity mirrors the above for FastAdaptive's
// top-object fallback path.
func TestFastAdaptiveBoundedOverCapacity(t *testing.T) {
	f := MustFastAdaptive(FastAdaptiveConfig{MaxLevel: 3})
	space := tas.NewSparse()
	served := 0
	for p := 0; ; p++ {
		env := &testEnv{space: space, rng: xrand.NewStream(8, uint64(p))}
		if f.GetName(env) == NoName {
			break
		}
		served++
		if served > f.Namespace() {
			t.Fatal("served more names than the address space holds")
		}
	}
	if served < 16 {
		t.Fatalf("served only %d names before exhaustion", served)
	}
}

// TestSearchRespectsRangeInvariant checks Fig. 2's contract: Search(a,b)
// returns a name from some R_i with a <= i <= b.
func TestSearchRespectsRangeInvariant(t *testing.T) {
	f := MustFastAdaptive(FastAdaptiveConfig{})
	space := tas.NewSparse()
	for p := 0; p < 400; p++ {
		env := &testEnv{space: space, rng: xrand.NewStream(21, uint64(p))}
		u := f.GetName(env)
		if u == NoName {
			t.Fatalf("process %d failed", p)
		}
		// Every name must belong to exactly one object's range.
		owner := -1
		for i := 1; i <= 20; i++ {
			if contains(i, u) {
				if owner != -1 {
					t.Fatalf("name %d in two object ranges (%d and %d)", u, owner, i)
				}
				owner = i
			}
		}
		if owner == -1 {
			t.Fatalf("name %d outside every object range", u)
		}
	}
}

// TestReBatchingStepBudget verifies that without the backup phase no
// process can exceed the Eq. 2 probe budget — the step-complexity ceiling
// Theorem 4.1's additive constant comes from.
func TestReBatchingStepBudget(t *testing.T) {
	r := MustReBatching(ReBatchingConfig{N: 128, Epsilon: 1, DisableBackup: true})
	budget := 0
	for i := 0; i <= r.MaxBatch(); i++ {
		budget += r.BatchProbes(i)
	}
	space := tas.NewSparse()
	for p := 0; p < 128; p++ {
		counter := &countingEnv{inner: &testEnv{space: space, rng: xrand.NewStream(31, uint64(p))}}
		r.GetName(counter)
		if counter.steps > budget {
			t.Fatalf("process %d took %d steps, budget %d", p, counter.steps, budget)
		}
	}
}

// countingEnv wraps an Env and counts TAS steps.
type countingEnv struct {
	inner Env
	steps int
}

func (c *countingEnv) TAS(loc int) bool {
	c.steps++
	return c.inner.TAS(loc)
}

func (c *countingEnv) Intn(n int) int { return c.inner.Intn(n) }
