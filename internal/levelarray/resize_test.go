package levelarray

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/tas"
	"repro/internal/xrand"
)

func TestResizeGrow(t *testing.T) {
	var ensured []int
	la := Must(Config{N: 16, EnsureSpace: func(ns int) {
		ensured = append(ensured, ns)
	}})
	oldSize := la.Size()
	if la.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", la.Epoch())
	}
	if err := la.Resize(64); err != nil {
		t.Fatal(err)
	}
	if got := la.MaxConcurrency(); got != 64 {
		t.Fatalf("MaxConcurrency() = %d, want 64", got)
	}
	if la.Epoch() != 1 {
		t.Fatalf("epoch = %d after one resize", la.Epoch())
	}
	if la.Size() <= oldSize {
		t.Fatalf("Size() = %d did not grow past %d", la.Size(), oldSize)
	}
	if len(ensured) != 1 || ensured[0] != la.Namespace() {
		t.Fatalf("EnsureSpace calls = %v, want [%d]", ensured, la.Namespace())
	}
	if got, want := la.Levels(), int(math.Floor(math.Log2(64)))+1; got != want {
		t.Fatalf("Levels() = %d, want %d", got, want)
	}
	// Allowed size per level matches the formula for the new N.
	g := la.geo.Load()
	for i, lv := range g.levels {
		if want := levelSize(64, 1, i); lv.size != want {
			t.Fatalf("level %d allowed size = %d, want %d", i, lv.size, want)
		}
	}
	// The grown array must still hand out 64 distinct names one-shot.
	s := tas.NewDense(la.Namespace())
	e := &env{space: s, rng: xrand.New(5)}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		u := la.GetName(e)
		if u < 0 || u >= la.Namespace() || seen[u] {
			t.Fatalf("acquire %d: name %d (seen=%v)", i, u, seen[u])
		}
		seen[u] = true
	}
}

func TestResizeShrinkDrains(t *testing.T) {
	la := Must(Config{N: 64})
	s := tas.NewDense(la.Namespace())
	e := &env{space: s, rng: xrand.New(9)}
	// Fill the entire array (well past capacity — uniqueness holds up to
	// Namespace()) so the shrunk allowed region is provably saturated.
	held := make([]int, 0, la.Namespace())
	for {
		u := la.GetName(e)
		if u == core.NoName {
			break
		}
		held = append(held, u)
	}
	if len(held) != la.Size() {
		t.Fatalf("filled %d slots, want %d", len(held), la.Size())
	}
	if err := la.Resize(8); err != nil {
		t.Fatal(err)
	}
	if got := la.MaxConcurrency(); got != 8 {
		t.Fatalf("MaxConcurrency() = %d, want 8", got)
	}
	if la.Namespace() < 64 {
		t.Fatalf("Namespace() shrank to %d with names outstanding", la.Namespace())
	}
	// With everything held the array has no free allowed slot.
	if u := la.GetName(e); u != core.NoName {
		t.Fatalf("GetName on a full shrunk array = %d, want NoName", u)
	}
	// Names above the new bound are now drain-only.
	if !la.Draining(s.IsSet) {
		t.Fatal("Draining() = false with the old population still held")
	}
	// Release everything; the drained region empties and new grants stay
	// inside the shrunk allowed region.
	for _, u := range held {
		s.TryReset(u)
	}
	if la.Draining(s.IsSet) {
		t.Fatal("Draining() = true after every holder released")
	}
	for i := 0; i < 8; i++ {
		u := la.GetName(e)
		if u == core.NoName {
			t.Fatalf("acquire %d exhausted after drain", i)
		}
		if !la.Allowed(u) {
			t.Fatalf("granted drain-only name %d after shrink", u)
		}
	}
	// Deep levels beyond floor(log2 8)+1 are fully drained.
	if got, want := la.Levels(), int(math.Floor(math.Log2(8)))+1; got != want {
		t.Fatalf("Levels() = %d after shrink, want %d", got, want)
	}
}

func TestResizeGrowReclaimsDrainedTail(t *testing.T) {
	la := Must(Config{N: 64})
	if err := la.Resize(8); err != nil {
		t.Fatal(err)
	}
	size := la.Size()
	if err := la.Resize(64); err != nil {
		t.Fatal(err)
	}
	// Growing back reuses the drained segments: no new slots appended.
	if la.Size() != size {
		t.Fatalf("Size() = %d after shrink+regrow, want unchanged %d", la.Size(), size)
	}
	g := la.geo.Load()
	for i, lv := range g.levels {
		if lv.size != lv.phys {
			t.Fatalf("level %d still drain-bounded (%d < %d) after regrow", i, lv.size, lv.phys)
		}
	}
}

func TestResizeValidationAndNoop(t *testing.T) {
	la := Must(Config{N: 16})
	if err := la.Resize(0); err == nil {
		t.Fatal("Resize(0) accepted")
	}
	if err := la.Resize(16); err != nil {
		t.Fatalf("no-op Resize failed: %v", err)
	}
	if la.Epoch() != 0 {
		t.Fatalf("no-op Resize bumped epoch to %d", la.Epoch())
	}
}

func TestAllowedOutsideExtent(t *testing.T) {
	la := Must(Config{N: 8})
	if la.Allowed(-1) || la.Allowed(la.Namespace()) {
		t.Fatal("Allowed accepted out-of-range names")
	}
	if !la.Allowed(0) {
		t.Fatal("Allowed rejected slot 0")
	}
}

// TestResizeConcurrentAcquire races GetName against grow/shrink cycles
// over an Elastic space (grown via EnsureSpace, exactly as the driver
// wires it): every granted name must be unique and inside the namespace,
// and torn geometries would surface as panics or range violations.
func TestResizeConcurrentAcquire(t *testing.T) {
	space := tas.NewElastic(0)
	la := Must(Config{N: 32, EnsureSpace: space.Grow})
	space.Grow(la.Namespace())

	var mu sync.Mutex
	seen := map[int]int{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w + 1))
			e := &env{space: space, rng: rng}
			local := make([]int, 0, 8)
			for iter := 0; iter < 500; iter++ {
				u := la.GetName(e)
				if u == core.NoName {
					continue
				}
				if u < 0 || u >= la.Namespace() {
					t.Errorf("name %d outside namespace %d", u, la.Namespace())
					return
				}
				mu.Lock()
				seen[u]++
				if seen[u] > 1 {
					t.Errorf("name %d granted twice concurrently", u)
				}
				mu.Unlock()
				local = append(local, u)
				if len(local) >= 8 {
					// Ledger first, then the slot: once TryReset lands the
					// name is immediately re-grantable to another worker.
					for _, v := range local {
						mu.Lock()
						seen[v]--
						mu.Unlock()
						space.TryReset(v)
					}
					local = local[:0]
				}
			}
			for _, v := range local {
				mu.Lock()
				seen[v]--
				mu.Unlock()
				space.TryReset(v)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			n := 8 << (i % 4) // 8, 16, 32, 64
			if err := la.Resize(n); err != nil {
				t.Errorf("Resize(%d): %v", n, err)
				return
			}
		}
	}()
	wg.Wait()
}
