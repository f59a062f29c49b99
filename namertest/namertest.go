// Package namertest provides a conformance suite for renaming.Namer
// implementations: uniqueness under concurrency, release semantics,
// context cancellation, and the batch invariants of AcquireN (k distinct
// names or an error with zero names retained). The package's own tests run
// the suite against every name in renaming.Drivers(), and CI runs them
// under -race.
//
// Use it for a new namer like any shared test helper:
//
//	func TestMyNamerConformance(t *testing.T) {
//		namertest.Run(t, func() (renaming.Namer, error) {
//			return mypkg.New(64)
//		})
//	}
//
// The factory is called once per subtest, always with the same
// configuration, and the namer is assumed to support Release (the suite is
// for the library's long-lived contract).
package namertest

import (
	"context"
	"errors"
	"sync"
	"testing"

	renaming "repro"
)

// Run executes the full conformance suite against namers built by mk.
// Each subtest gets a fresh namer.
func Run(t *testing.T, mk func() (renaming.Namer, error)) {
	t.Helper()
	t.Run("ConcurrentUnique", func(t *testing.T) { testConcurrentUnique(t, mk) })
	t.Run("ReleaseSemantics", func(t *testing.T) { testReleaseSemantics(t, mk) })
	t.Run("BatchDistinct", func(t *testing.T) { testBatchDistinct(t, mk) })
	t.Run("BatchRollback", func(t *testing.T) { testBatchRollback(t, mk) })
	t.Run("Cancellation", func(t *testing.T) { testCancellation(t, mk) })
}

// concurrency is how many goroutines the concurrent subtests race. The
// suite assumes the factory's namer can serve at least this many
// simultaneous holders (every library constructor with n >= concurrency
// qualifies).
const concurrency = 32

func build(t *testing.T, mk func() (renaming.Namer, error)) renaming.Namer {
	t.Helper()
	nm, err := mk()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	return nm
}

func assertDistinct(t *testing.T, names []int, bound int) {
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

// testConcurrentUnique races concurrent Acquire calls: all must succeed
// with distinct in-range names.
func testConcurrentUnique(t *testing.T, mk func() (renaming.Namer, error)) {
	nm := build(t, mk)
	names := make([]int, concurrency)
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	for g := 0; g < concurrency; g++ {
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
	assertDistinct(t, names, nm.Namespace())
}

// testReleaseSemantics checks that a released name returns to the pool,
// and that a double release and a release of a name outside the namespace
// report ErrNotHeld.
func testReleaseSemantics(t *testing.T, mk func() (renaming.Namer, error)) {
	nm := build(t, mk)
	u, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Release(u); err != nil {
		t.Fatalf("Release(%d): %v", u, err)
	}
	for _, v := range []int{u, -1, nm.Namespace()} {
		if err := nm.Release(v); !errors.Is(err, renaming.ErrNotHeld) {
			t.Fatalf("Release(%d) of a name not held: err = %v, want ErrNotHeld", v, err)
		}
	}
	// The slot is genuinely free again: the namer can serve `concurrency`
	// holders even after a release/re-acquire cycle.
	names, err := nm.AcquireN(context.Background(), concurrency)
	if err != nil {
		t.Fatalf("AcquireN after release: %v", err)
	}
	assertDistinct(t, names, nm.Namespace())
}

// testBatchDistinct checks AcquireN's happy path: k distinct names, and
// concurrent batches never overlap.
func testBatchDistinct(t *testing.T, mk func() (renaming.Namer, error)) {
	nm := build(t, mk)
	if _, err := nm.AcquireN(context.Background(), 0); !errors.Is(err, renaming.ErrBadConfig) {
		t.Fatalf("AcquireN(0) err = %v, want ErrBadConfig", err)
	}
	if _, err := nm.AcquireN(context.Background(), -3); !errors.Is(err, renaming.ErrBadConfig) {
		t.Fatalf("AcquireN(-3) err = %v, want ErrBadConfig", err)
	}

	const (
		workers = 4
		k       = concurrency / workers
	)
	batches := make([][]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batches[w], errs[w] = nm.AcquireN(context.Background(), k)
		}(w)
	}
	wg.Wait()
	var all []int
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("batch %d: %v", w, errs[w])
		}
		if len(batches[w]) != k {
			t.Fatalf("batch %d has %d names, want %d", w, len(batches[w]), k)
		}
		all = append(all, batches[w]...)
	}
	assertDistinct(t, all, nm.Namespace())
}

// testBatchRollback drives AcquireN into genuine mid-batch exhaustion:
// with one name already held, a namespace-sized batch must fail partway —
// after taking real names — and hand every one of them back. A batch
// larger than the namespace must be rejected up front (it can never
// complete, and k must not size an allocation).
func testBatchRollback(t *testing.T, mk func() (renaming.Namer, error)) {
	nm := build(t, mk)
	if _, err := nm.AcquireN(context.Background(), nm.Namespace()+1); !errors.Is(err, renaming.ErrNamespaceExhausted) {
		t.Fatalf("AcquireN(namespace+1) err = %v, want ErrNamespaceExhausted", err)
	}

	held, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// k == Namespace() passes the up-front size check, but only
	// Namespace()-1 slots are free: the batch exhausts after genuinely
	// acquiring names and must roll all of them back.
	if _, err := nm.AcquireN(context.Background(), nm.Namespace()); !errors.Is(err, renaming.ErrNamespaceExhausted) {
		t.Fatalf("namespace-sized batch over a partly-full namer err = %v, want ErrNamespaceExhausted", err)
	}
	if err := nm.Release(held); err != nil {
		t.Fatalf("Release(%d) after failed batch: %v (did rollback free a held name?)", held, err)
	}
	names, err := nm.AcquireN(context.Background(), concurrency)
	if err != nil {
		t.Fatalf("AcquireN after failed batch: %v (names leaked by rollback?)", err)
	}
	assertDistinct(t, names, nm.Namespace())
}

// testCancellation checks that an already-cancelled context rejects both
// Acquire and AcquireN with ErrCancelled wrapping the context error, and
// that nothing is retained afterwards.
func testCancellation(t *testing.T, mk func() (renaming.Namer, error)) {
	nm := build(t, mk)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := nm.Acquire(ctx); !errors.Is(err, renaming.ErrCancelled) {
		t.Fatalf("cancelled Acquire err = %v, want ErrCancelled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire err = %v, want it to wrap context.Canceled", err)
	}
	if _, err := nm.AcquireN(ctx, 4); !errors.Is(err, renaming.ErrCancelled) {
		t.Fatalf("cancelled AcquireN err = %v, want ErrCancelled", err)
	}

	// Nothing stuck: every slot is still grantable.
	names, err := nm.AcquireN(context.Background(), concurrency)
	if err != nil {
		t.Fatalf("AcquireN after cancelled calls: %v", err)
	}
	assertDistinct(t, names, nm.Namespace())
}
