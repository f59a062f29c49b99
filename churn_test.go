package renaming

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChurnNeverDoubleAllocates hammers acquire/release cycles from many
// goroutines and asserts the fundamental safety property of long-lived
// renaming: at no instant do two goroutines hold the same name. Holder
// flags are tracked with an independent atomic array, so a double
// allocation is caught at the moment it happens.
func TestChurnNeverDoubleAllocates(t *testing.T) {
	forEachDriver(t, func(t *testing.T, _, dsn string) {
		nm, err := Open(dsn)
		if err != nil {
			t.Fatal(err)
		}
		const (
			workers = 16
			cycles  = 300
		)
		holders := make([]atomic.Int32, nm.Namespace())
		var violations atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < cycles; c++ {
					u, err := nm.Acquire(context.Background())
					if err != nil {
						violations.Add(1)
						return
					}
					if holders[u].Add(1) != 1 {
						violations.Add(1)
					}
					holders[u].Add(-1)
					if err := nm.Release(u); err != nil {
						violations.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d safety violations under churn", v)
		}
		// After all releases the namer must serve a full generation of
		// distinct names again.
		assertUnique(t, gatherConcurrent(t, nm, concurrency), nm.Namespace())
	})
}

// TestConcurrentMixedAcquireRelease interleaves long-held and short-held
// names to stress the window where a released slot is immediately re-won.
func TestConcurrentMixedAcquireRelease(t *testing.T) {
	nm, err := NewReBatching(32, WithT0Override(6))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Half the capacity is pinned by long-lived holders.
	pinned := make([]int, 16)
	for i := range pinned {
		u, err := nm.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pinned[i] = u
	}
	// Short-lived workers churn through the remaining half.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, err := nm.Acquire(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				for _, p := range pinned {
					if u == p {
						t.Errorf("pinned name %d handed out twice", u)
						return
					}
				}
				if err := nm.Release(u); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		// Let the churn run a bit.
	}
	close(stop)
	wg.Wait()
	for _, u := range pinned {
		if err := nm.Release(u); err != nil {
			t.Fatalf("releasing pinned %d: %v", u, err)
		}
	}
}

// TestDoubleReleaseExactlyOneWins races many concurrent releases of the
// same held name: exactly one must succeed and the rest must report
// ErrNotHeld. Before Release was CAS-based, the IsSet+Reset window let
// several racing releases all "succeed". (A stale release arriving after
// a re-acquire is still unguarded here — that ABA needs the lease layer's
// fencing tokens.)
func TestDoubleReleaseExactlyOneWins(t *testing.T) {
	forEachDriver(t, func(t *testing.T, _, dsn string) {
		nm, err := Open(dsn)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 50; round++ {
			u, err := nm.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			const releasers = 8
			var wins atomic.Int32
			var wg sync.WaitGroup
			start := make(chan struct{})
			for r := 0; r < releasers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					switch err := nm.Release(u); err {
					case nil:
						wins.Add(1)
					case ErrNotHeld:
					default:
						t.Errorf("unexpected Release error: %v", err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if got := wins.Load(); got != 1 {
				t.Fatalf("round %d: %d releases succeeded, want exactly 1", round, got)
			}
		}
	})
}

// TestLevelArrayCapacityChurn holds the namer at full capacity and cycles
// every name: Capacity() concurrent holders is the documented limit and
// must never exhaust the namespace.
func TestLevelArrayCapacityChurn(t *testing.T) {
	nm, err := NewLevelArray(32)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Capacity() != 32 {
		t.Fatalf("Capacity() = %d, want 32", nm.Capacity())
	}
	var wg sync.WaitGroup
	for w := 0; w < nm.Capacity(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < 200; c++ {
				u, err := nm.Acquire(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if err := nm.Release(u); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
