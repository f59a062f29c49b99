package renaming

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// The long-lived renaming contract every namer keeps: uniqueness under
// concurrency, release semantics, context cancellation, and the batch
// invariants of AcquireN (k distinct names or an error with zero names
// retained). TestRegisteredNamersConformance checks it for every name in
// Drivers(); the churn and property tests read the same driver table.

// conformanceDSNs maps every name in Drivers() to the DSN the contract
// checks run it with. The t0=6 override on the ReBatching family keeps the
// exhaustion-path checks fast (the paper's t₀ = 53 constant multiplies
// every probe sequence) without changing any semantics under test.
var conformanceDSNs = map[string]string{
	"rebatching":   "rebatching?n=48&seed=7&t0=6",
	"adaptive":     "adaptive?n=48&seed=7&t0=6",
	"fastadaptive": "fastadaptive?n=48&seed=7&t0=6",
	"levelarray":   "levelarray?n=48&seed=7",
	"uniform":      "uniform?n=48&seed=7",
	"linearscan":   "linearscan?n=48&seed=7",
}

// concurrency is how many goroutines the concurrent checks race, and how
// many names a fresh namer from conformanceDSNs must still grant after a
// check has worked it.
const concurrency = 32

// forEachDriver runs f as a parallel subtest for every name in Drivers(),
// handing it the driver's conformance DSN. The driver table is the source
// of truth: a namer added to it fails t until it gets a DSN, so no driver
// ships unexercised.
func forEachDriver(t *testing.T, f func(t *testing.T, name, dsn string)) {
	t.Helper()
	for _, name := range Drivers() {
		dsn, ok := conformanceDSNs[name]
		if !ok {
			t.Errorf("driver %q has no conformance DSN; add one to conformanceDSNs", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f(t, name, dsn)
		})
	}
}

// TestRegisteredNamersConformance runs every contract check against every
// driver, each check on a fresh namer.
func TestRegisteredNamersConformance(t *testing.T) {
	checks := []struct {
		name  string
		check func(*testing.T, Namer)
	}{
		{"ConcurrentUnique", checkConcurrentUnique},
		{"ReleaseSemantics", checkReleaseSemantics},
		{"BatchDistinct", checkBatchDistinct},
		{"BatchRollback", checkBatchRollback},
		{"Cancellation", checkCancellation},
	}
	forEachDriver(t, func(t *testing.T, _, dsn string) {
		for _, c := range checks {
			t.Run(c.name, func(t *testing.T) {
				nm, err := Open(dsn)
				if err != nil {
					t.Fatal(err)
				}
				c.check(t, nm)
			})
		}
	})
}

// checkConcurrentUnique races concurrent Acquire calls: all must succeed
// with distinct in-range names.
func checkConcurrentUnique(t *testing.T, nm Namer) {
	assertUnique(t, gatherConcurrent(t, nm, concurrency), nm.Namespace())
}

// checkReleaseSemantics checks that a released name returns to the pool,
// and that a double release and a release of a name outside the namespace
// report ErrNotHeld.
func checkReleaseSemantics(t *testing.T, nm Namer) {
	u, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Release(u); err != nil {
		t.Fatalf("Release(%d): %v", u, err)
	}
	for _, v := range []int{u, -1, nm.Namespace()} {
		if err := nm.Release(v); !errors.Is(err, ErrNotHeld) {
			t.Fatalf("Release(%d) of a name not held: err = %v, want ErrNotHeld", v, err)
		}
	}
	// The slot is genuinely free again: the namer can serve `concurrency`
	// holders even after a release/re-acquire cycle.
	names, err := nm.AcquireN(context.Background(), concurrency)
	if err != nil {
		t.Fatalf("AcquireN after release: %v", err)
	}
	assertUnique(t, names, nm.Namespace())
}

// checkBatchDistinct checks AcquireN's happy path: k distinct names, and
// concurrent batches never overlap.
func checkBatchDistinct(t *testing.T, nm Namer) {
	for _, k := range []int{0, -3} {
		if _, err := nm.AcquireN(context.Background(), k); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("AcquireN(%d) err = %v, want ErrBadConfig", k, err)
		}
	}
	const (
		workers = 4
		k       = concurrency / workers
	)
	batches := make([][]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batches[w], errs[w] = nm.AcquireN(context.Background(), k)
		}()
	}
	wg.Wait()
	var all []int
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("batch %d: %v", w, errs[w])
		}
		if len(batches[w]) != k {
			t.Fatalf("batch %d has %d names, want %d", w, len(batches[w]), k)
		}
		all = append(all, batches[w]...)
	}
	assertUnique(t, all, nm.Namespace())
}

// checkBatchRollback drives AcquireN into genuine mid-batch exhaustion:
// with one name already held, a namespace-sized batch must fail partway —
// after taking real names — and hand every one of them back. A batch
// larger than the namespace must be rejected up front (it can never
// complete, and k must not size an allocation).
func checkBatchRollback(t *testing.T, nm Namer) {
	if _, err := nm.AcquireN(context.Background(), nm.Namespace()+1); !errors.Is(err, ErrNamespaceExhausted) {
		t.Fatalf("AcquireN(namespace+1) err = %v, want ErrNamespaceExhausted", err)
	}
	held, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// k == Namespace() passes the up-front size check, but only
	// Namespace()-1 slots are free: the batch exhausts after genuinely
	// acquiring names and must roll all of them back.
	if _, err := nm.AcquireN(context.Background(), nm.Namespace()); !errors.Is(err, ErrNamespaceExhausted) {
		t.Fatalf("namespace-sized batch over a partly-full namer err = %v, want ErrNamespaceExhausted", err)
	}
	if err := nm.Release(held); err != nil {
		t.Fatalf("Release(%d) after failed batch: %v (did rollback free a held name?)", held, err)
	}
	names, err := nm.AcquireN(context.Background(), concurrency)
	if err != nil {
		t.Fatalf("AcquireN after failed batch: %v (names leaked by rollback?)", err)
	}
	assertUnique(t, names, nm.Namespace())
}

// checkCancellation checks that an already-cancelled context rejects both
// Acquire and AcquireN with ErrCancelled wrapping the context error, and
// that nothing is retained afterwards.
func checkCancellation(t *testing.T, nm Namer) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nm.Acquire(ctx); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if _, err := nm.AcquireN(ctx, 4); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled AcquireN err = %v, want ErrCancelled", err)
	}
	// Nothing stuck: every slot is still grantable.
	names, err := nm.AcquireN(context.Background(), concurrency)
	if err != nil {
		t.Fatalf("AcquireN after cancelled calls: %v", err)
	}
	assertUnique(t, names, nm.Namespace())
}

// TestResizableLevelArrayConformance checks the dynamic-capacity contract
// of ResizableNamer on a LevelArray — on top of, not instead of, the base
// contract, which TestRegisteredNamersConformance/levelarray checks: every
// LevelArray is elastic, so it must keep every static guarantee too. Each
// check gets a fresh namer of capacity 48, a multiple of 4 so the
// grow/shrink ratios stay integral.
func TestResizableLevelArrayConformance(t *testing.T) {
	checks := []struct {
		name  string
		check func(t *testing.T, nm *LevelArray, c0 int)
	}{
		{"GrowExpandsCapacity", checkGrowExpandsCapacity},
		{"ShrinkDrainsAndQuiesces", checkShrinkDrainsAndQuiesces},
		{"EpochAdvances", checkEpochAdvances},
		{"ChurnUnderResize", checkChurnUnderResize},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			nm, err := NewLevelArray(48, WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, nm, nm.Capacity())
		})
	}
}

// checkGrowExpandsCapacity grows the namer and demands a batch strictly
// larger than the ORIGINAL namespace — only a real capacity change can
// satisfy it.
func checkGrowExpandsCapacity(t *testing.T, nm *LevelArray, c0 int) {
	ns0 := nm.Namespace()
	if err := nm.Resize(4 * c0); err != nil {
		t.Fatalf("Resize(%d): %v", 4*c0, err)
	}
	if got := nm.Capacity(); got != 4*c0 {
		t.Fatalf("Capacity() = %d after grow, want %d", got, 4*c0)
	}
	if nm.Namespace() <= ns0 {
		t.Fatalf("Namespace() = %d did not grow past %d", nm.Namespace(), ns0)
	}
	if nm.Draining() {
		t.Fatal("Draining() = true after a pure grow")
	}
	names, err := nm.AcquireN(context.Background(), ns0+1)
	if err != nil {
		t.Fatalf("AcquireN(%d) after grow: %v", ns0+1, err)
	}
	assertUnique(t, names, nm.Namespace())
}

// checkShrinkDrainsAndQuiesces saturates the namespace, shrinks, and
// checks the drain contract: held names above the bound keep the namer
// draining and stay releasable, releases quiesce it, and post-shrink
// grants never reopen the drained region.
func checkShrinkDrainsAndQuiesces(t *testing.T, nm *LevelArray, c0 int) {
	held, err := nm.AcquireN(context.Background(), nm.Namespace())
	if err != nil {
		t.Fatalf("saturating AcquireN: %v", err)
	}
	if err := nm.Resize(c0 / 4); err != nil {
		t.Fatalf("Resize(%d): %v", c0/4, err)
	}
	if got := nm.Capacity(); got != c0/4 {
		t.Fatalf("Capacity() = %d after shrink, want %d", got, c0/4)
	}
	if !nm.Draining() {
		t.Fatal("Draining() = false with the whole old namespace held")
	}
	// Every held name — above the bound or not — must still release.
	for _, u := range held {
		if err := nm.Release(u); err != nil {
			t.Fatalf("Release(%d) during drain: %v", u, err)
		}
	}
	if nm.Draining() {
		t.Fatal("Draining() = true after the last holder released")
	}
	// Re-grant until exhaustion: the shrunk namer must serve at least its
	// new capacity, strictly less than the old namespace, and no grant may
	// land in (and so re-open) the drained tail.
	granted := 0
	for {
		if _, err := nm.Acquire(context.Background()); err != nil {
			if !errors.Is(err, ErrNamespaceExhausted) {
				t.Fatalf("Acquire after drain: %v", err)
			}
			break
		}
		granted++
		if granted > nm.Namespace() {
			t.Fatal("granted more names than the namespace holds")
		}
	}
	if granted < c0/4 {
		t.Fatalf("shrunk namer granted %d names, want >= capacity %d", granted, c0/4)
	}
	if granted >= len(held) {
		t.Fatalf("shrunk namer granted %d names, want < old namespace %d", granted, len(held))
	}
	if nm.Draining() {
		t.Fatal("post-shrink grants re-opened the drained tail")
	}
}

// checkEpochAdvances checks ResizeEpoch is a monotone fence over
// successful capacity changes.
func checkEpochAdvances(t *testing.T, nm *LevelArray, c0 int) {
	e0 := nm.ResizeEpoch()
	if err := nm.Resize(2 * c0); err != nil {
		t.Fatal(err)
	}
	e1 := nm.ResizeEpoch()
	if e1 <= e0 {
		t.Fatalf("epoch %d after grow, want > %d", e1, e0)
	}
	if err := nm.Resize(c0); err != nil {
		t.Fatal(err)
	}
	if e2 := nm.ResizeEpoch(); e2 <= e1 {
		t.Fatalf("epoch %d after shrink, want > %d", e2, e1)
	}
}

// checkChurnUnderResize races acquire/release churn against grow/shrink
// cycles: every concurrently held pair of names must be distinct, and
// the only acceptable failure is transient exhaustion while shrunk.
func checkChurnUnderResize(t *testing.T, nm *LevelArray, c0 int) {
	var mu sync.Mutex
	heldCount := map[int]int{}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []int
			release := func() {
				for _, u := range local {
					// Ledger first: once Release lands the name is
					// immediately re-grantable to another goroutine.
					mu.Lock()
					heldCount[u]--
					mu.Unlock()
					if err := nm.Release(u); err != nil {
						t.Errorf("Release(%d): %v", u, err)
					}
				}
				local = local[:0]
			}
			for range 300 {
				u, err := nm.Acquire(context.Background())
				if err != nil {
					if errors.Is(err, ErrNamespaceExhausted) {
						release()
						continue
					}
					t.Errorf("Acquire: %v", err)
					return
				}
				mu.Lock()
				heldCount[u]++
				if heldCount[u] > 1 {
					t.Errorf("name %d held twice concurrently", u)
				}
				mu.Unlock()
				local = append(local, u)
				if len(local) >= 4 {
					release()
				}
			}
			release()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{c0 / 4, 2 * c0, c0 / 2, 4 * c0, c0}
		for i := range 40 {
			if err := nm.Resize(sizes[i%len(sizes)]); err != nil {
				t.Errorf("Resize(%d): %v", sizes[i%len(sizes)], err)
				return
			}
		}
	}()
	wg.Wait()
}
