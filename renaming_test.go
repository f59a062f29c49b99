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

func TestBaselinesConcurrentUnique(t *testing.T) {
	const n = 256
	uni, err := NewUniform(n)
	if err != nil {
		t.Fatal(err)
	}
	assertUnique(t, gatherConcurrent(t, uni, n), uni.Namespace())

	lin, err := NewLinearScan(n)
	if err != nil {
		t.Fatal(err)
	}
	names := gatherConcurrent(t, lin, n)
	assertUnique(t, names, n)
}

func TestReleaseAndReacquire(t *testing.T) {
	nm, err := NewReBatching(8, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	u, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Release(u); err != nil {
		t.Fatalf("Release(%d): %v", u, err)
	}
	if err := nm.Release(u); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release: got %v, want ErrNotHeld", err)
	}
	if err := nm.Release(-1); err == nil {
		t.Fatal("Release(-1) accepted")
	}
	if err := nm.Release(nm.Namespace()); err == nil {
		t.Fatal("Release(out of range) accepted")
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
	if _, _, ok := nm.Probes(); !ok {
		t.Fatal("Probes() not available despite WithCounting")
	}
	gatherConcurrent(t, nm, 64)
	ops, wins, ok := nm.Probes()
	if !ok || ops < 64 || wins != 64 {
		t.Fatalf("Probes() = %d ops %d wins ok=%v; want >= 64 ops, exactly 64 wins", ops, wins, ok)
	}

	plain, err := NewReBatching(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := plain.Probes(); ok {
		t.Fatal("Probes() available without WithCounting")
	}
}

func TestWithPaddedTAS(t *testing.T) {
	nm, err := NewReBatching(128, WithPaddedTAS())
	if err != nil {
		t.Fatal(err)
	}
	assertUnique(t, gatherConcurrent(t, nm, 128), nm.Namespace())
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

// TestAllNamersUniquePropertyQuick property-tests uniqueness across
// constructors, contention levels and seeds.
func TestAllNamersUniquePropertyQuick(t *testing.T) {
	property := func(seed uint64, rawK uint8) bool {
		k := int(rawK%100) + 1
		constructors := []func() (Namer, error){
			func() (Namer, error) { return NewReBatching(k, WithSeed(seed)) },
			func() (Namer, error) { return NewAdaptive(k, WithSeed(seed)) },
			func() (Namer, error) { return NewFastAdaptive(k, WithSeed(seed)) },
			func() (Namer, error) { return NewUniform(k, WithSeed(seed)) },
		}
		for _, mk := range constructors {
			nm, err := mk()
			if err != nil {
				return false
			}
			seen := make(map[int]bool, k)
			var wg sync.WaitGroup
			names := make([]int, k)
			for g := 0; g < k; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					names[g], _ = nm.Acquire(context.Background())
				}(g)
			}
			wg.Wait()
			for _, u := range names {
				if u < 0 || u >= nm.Namespace() || seen[u] {
					return false
				}
				seen[u] = true
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
