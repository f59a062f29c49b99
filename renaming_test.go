package renaming

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// gatherConcurrent launches k goroutines against nm and collects their
// names, failing the test on any error.
func gatherConcurrent(t *testing.T, nm Namer, k int) []int {
	t.Helper()
	names := make([]int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names[g], errs[g] = nm.Acquire(context.Background())
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	return names
}

func assertUnique(t *testing.T, names []int, bound int) {
	t.Helper()
	seen := make(map[int]bool, len(names))
	for _, u := range names {
		if u < 0 || u >= bound {
			t.Fatalf("name %d outside [0,%d)", u, bound)
		}
		if seen[u] {
			t.Fatalf("duplicate name %d", u)
		}
		seen[u] = true
	}
}

func TestReBatchingConcurrentUnique(t *testing.T) {
	const n = 512
	nm, err := NewReBatching(n)
	if err != nil {
		t.Fatal(err)
	}
	names := gatherConcurrent(t, nm, n)
	assertUnique(t, names, nm.Namespace())
}

func TestReBatchingFullCapacityTwice(t *testing.T) {
	// The namespace has (1+eps)n slots, so even 2n callers can be served
	// when eps = 1 (the extra callers just lean on the backup scan).
	const n = 128
	nm, err := NewReBatching(n)
	if err != nil {
		t.Fatal(err)
	}
	names := gatherConcurrent(t, nm, 2*n)
	assertUnique(t, names, nm.Namespace())
}

func TestReBatchingExhaustion(t *testing.T) {
	nm, err := NewReBatching(4, WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_, err := nm.Acquire(context.Background())
		if err != nil {
			if !errors.Is(err, ErrNamespaceExhausted) {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		got++
		if got > nm.Namespace() {
			t.Fatal("handed out more names than the namespace holds")
		}
	}
	if got != nm.Namespace() {
		t.Fatalf("served %d names before exhaustion, want %d", got, nm.Namespace())
	}
}

func TestAdaptiveConcurrentUnique(t *testing.T) {
	nm, err := NewAdaptive(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	const k = 300
	names := gatherConcurrent(t, nm, k)
	assertUnique(t, names, nm.Namespace())
	maxName := 0
	for _, u := range names {
		if u > maxName {
			maxName = u
		}
	}
	if maxName > 16*k {
		t.Errorf("adaptive max name %d not O(k) for k=%d", maxName, k)
	}
}

func TestFastAdaptiveConcurrentUnique(t *testing.T) {
	nm, err := NewFastAdaptive(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	const k = 300
	names := gatherConcurrent(t, nm, k)
	assertUnique(t, names, nm.Namespace())
	maxName := 0
	for _, u := range names {
		if u > maxName {
			maxName = u
		}
	}
	if maxName > 32*k {
		t.Errorf("fast adaptive max name %d not O(k) for k=%d", maxName, k)
	}
}

func TestFastAdaptiveRejectsEpsilon(t *testing.T) {
	if _, err := NewFastAdaptive(64, WithEpsilon(0.5)); err == nil {
		t.Fatal("NewFastAdaptive accepted eps != 1")
	}
	if _, err := NewFastAdaptive(64, WithEpsilon(1)); err != nil {
		t.Fatalf("NewFastAdaptive rejected eps = 1: %v", err)
	}
}

func TestReleaseKeepsUniqueness(t *testing.T) {
	// Churn: acquire all, release all, acquire all again. Uniqueness must
	// hold within each generation.
	const n = 64
	nm, err := NewReBatching(n)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		names := gatherConcurrent(t, nm, n)
		assertUnique(t, names, nm.Namespace())
		for _, u := range names {
			if err := nm.Release(u); err != nil {
				t.Fatalf("round %d: Release(%d): %v", round, u, err)
			}
		}
	}
}

func TestWithCountingProbes(t *testing.T) {
	nm, err := NewReBatching(64, WithCounting())
	if err != nil {
		t.Fatal(err)
	}
	gatherConcurrent(t, nm, 64)
	ops, wins, ok := nm.Probes()
	if !ok || ops < 64 || wins != 64 {
		t.Fatalf("Probes() = %d ops %d wins ok=%v; want >= 64 ops, exactly 64 wins", ops, wins, ok)
	}

	// Failed calls count too. Draining a 4-name linear scan takes 1+2+3+4
	// steps; a scan that finds nothing takes 4 more and wins none.
	ctx := context.Background()
	done, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name      string
		held      int // names taken before the call that fails
		call      func(Namer) error
		want      error
		ops, wins int64
	}{
		{"exhausted", 4, func(nm Namer) error { _, err := nm.Acquire(ctx); return err }, ErrNamespaceExhausted, 14, 4},
		{"cancelled", 0, func(nm Namer) error { _, err := nm.Acquire(done); return err }, ErrCancelled, 0, 0},
		// Names 2 and 3 are won in 3+4 steps and handed back.
		{"batch fails partway", 2, func(nm Namer) error { _, err := nm.AcquireN(ctx, 3); return err }, ErrNamespaceExhausted, 14, 4},
	} {
		nm, err := Open("linearscan?n=4&counting=1")
		if err != nil {
			t.Fatal(err)
		}
		if tc.held > 0 {
			if _, err := nm.AcquireN(ctx, tc.held); err != nil {
				t.Fatal(err)
			}
		}
		err = tc.call(nm)
		if ops, wins, _ := nm.(*LinearScan).Probes(); !errors.Is(err, tc.want) || ops != tc.ops || wins != tc.wins {
			t.Errorf("%s: err = %v, Probes() = %d ops %d wins; want %v, %d ops %d wins", tc.name, err, ops, wins, tc.want, tc.ops, tc.wins)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	bad := [][]Option{
		{WithEpsilon(0)},
		{WithEpsilon(-1)},
		{WithBeta(0)},
		{WithT0Override(0)},
	}
	for _, opts := range bad {
		if _, err := NewReBatching(8, opts...); err == nil {
			t.Errorf("options %v accepted", opts)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewReBatching(0); err == nil {
		t.Error("NewReBatching(0) accepted")
	}
	if _, err := NewAdaptive(0); err == nil {
		t.Error("NewAdaptive(0) accepted")
	}
	if _, err := NewFastAdaptive(0); err == nil {
		t.Error("NewFastAdaptive(0) accepted")
	}
	if _, err := NewUniform(0); err == nil {
		t.Error("NewUniform(0) accepted")
	}
	if _, err := NewLinearScan(0); err == nil {
		t.Error("NewLinearScan(0) accepted")
	}
}

func TestSeedReproducibility(t *testing.T) {
	// With a fixed seed and sequential (single-goroutine) calls, the name
	// sequence is reproducible.
	run := func() []int {
		nm, err := NewReBatching(64, WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 64)
		for i := range out {
			u, err := nm.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = u
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %d != %d", i, a[i], b[i])
		}
	}
}

// TestAllNamersUniquePropertyQuick property-tests uniqueness for every
// driver across contention levels and seeds.
func TestAllNamersUniquePropertyQuick(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name, _ string) {
		property := func(seed uint64, rawK uint8) bool {
			k := int(rawK%100) + 1
			nm, err := drivers[name](k, WithSeed(seed))
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", k, seed, err)
			}
			assertUnique(t, gatherConcurrent(t, nm, k), nm.Namespace())
			return true
		}
		if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
}
