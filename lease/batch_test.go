package lease

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// newCappedManager builds a manager with MaxLive = capacity so batch
// reservations hit a real cap.
func newCappedManager(t *testing.T, capacity int) (*Manager, *fakeClock) {
	t.Helper()
	nm, err := renaming.NewLevelArray(capacity)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{
		TTL:           10 * time.Second,
		SweepInterval: -1,
		MaxLive:       capacity,
		Now:           clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Shutdown() })
	return m, clk
}

func TestAcquireBatchGrantsDistinctLeases(t *testing.T) {
	m, _ := newCappedManager(t, 64)
	if _, err := m.AcquireBatch(context.Background(), "batcher", 0, 0, nil); !errors.Is(err, renaming.ErrBadConfig) {
		t.Fatalf("AcquireBatch(k=0) err = %v, want ErrBadConfig", err)
	}

	const k = 16
	got, err := m.AcquireBatch(context.Background(), "batcher", k, 0, map[string]string{"job": "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("granted %d leases, want %d", len(got), k)
	}
	names := map[int]bool{}
	tokens := map[uint64]bool{}
	for _, l := range got {
		if names[l.Name] {
			t.Fatalf("duplicate name %d in batch", l.Name)
		}
		if tokens[l.Token] {
			t.Fatalf("duplicate fencing token %d in batch", l.Token)
		}
		names[l.Name] = true
		tokens[l.Token] = true
		if l.Owner != "batcher" || l.Meta["job"] != "b1" {
			t.Fatalf("lease fields incomplete: %+v", l)
		}
	}
	if got := m.Metrics(); got.Live != k || got.Acquired != int64(k) {
		t.Fatalf("metrics after batch = %+v, want Live=Acquired=%d", got, k)
	}
	// Every batch lease is individually renewable and releasable with its
	// own token.
	for _, l := range got {
		if _, err := renew1(m, l.Name, l.Token, 0); err != nil {
			t.Fatalf("renew batch lease %d: %v", l.Name, err)
		}
		if err := release1(m, l.Name, l.Token); err != nil {
			t.Fatalf("release batch lease %d: %v", l.Name, err)
		}
	}
	if got := m.Metrics(); got.Live != 0 {
		t.Fatalf("Live = %d after releasing whole batch, want 0", got.Live)
	}
}

// TestAcquireBatchAllOrNothing asks for more leases than the capacity cap
// allows: the batch must fail without consuming capacity or names.
func TestAcquireBatchAllOrNothing(t *testing.T) {
	const capacity = 8
	m, _ := newCappedManager(t, capacity)
	if _, err := m.AcquireBatch(context.Background(), "greedy", capacity+1, 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-capacity batch err = %v, want ErrCapacity", err)
	}
	// Nothing leaked: the full capacity is still grantable.
	leases, err := m.AcquireBatch(context.Background(), "ok", capacity, 0, nil)
	if err != nil {
		t.Fatalf("full-capacity batch after failed batch: %v", err)
	}
	if len(leases) != capacity {
		t.Fatalf("granted %d, want %d", len(leases), capacity)
	}
}

// TestAcquireBatchExhaustionRollsBack drives the namer itself (not the
// capacity cap) out of names mid-batch: every name the failed batch took
// must return to the pool.
func TestAcquireBatchExhaustionRollsBack(t *testing.T) {
	nm, err := renaming.NewLinearScan(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	// Beyond the namespace: rejected up front, before any allocation or
	// namer probing.
	if _, err := m.AcquireBatch(context.Background(), "w", 9, 0, nil); !errors.Is(err, renaming.ErrNamespaceExhausted) {
		t.Fatalf("batch beyond namespace err = %v, want ErrNamespaceExhausted", err)
	}
	// Genuine mid-batch exhaustion: with one name held, a namespace-sized
	// batch passes the size check, takes real names, runs out, and must
	// roll back every one of them.
	held, err := acquire1(m, "holder", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquireBatch(context.Background(), "w", 8, 0, nil); !errors.Is(err, renaming.ErrNamespaceExhausted) {
		t.Fatalf("batch over partly-full namer err = %v, want ErrNamespaceExhausted", err)
	}
	if err := release1(m, held.Name, held.Token); err != nil {
		t.Fatalf("release held lease after failed batch: %v", err)
	}
	leases, err := m.AcquireBatch(context.Background(), "w", 8, 0, nil)
	if err != nil {
		t.Fatalf("namespace-sized batch after rollback: %v", err)
	}
	if len(leases) != 8 {
		t.Fatalf("granted %d, want 8", len(leases))
	}
}

func TestAcquireCtxCancelled(t *testing.T) {
	m, _ := newCappedManager(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.AcquireBatch(ctx, "w", 1, 0, nil)
	if !errors.Is(err, renaming.ErrCancelled) {
		t.Fatalf("cancelled one-item AcquireBatch err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled one-item AcquireBatch err = %v, want it to wrap context.Canceled", err)
	}
	if _, err := m.AcquireBatch(ctx, "w", 4, 0, nil); !errors.Is(err, renaming.ErrCancelled) {
		t.Fatalf("cancelled AcquireBatch err = %v, want ErrCancelled", err)
	}
	// The reservation was returned: the full capacity still fits.
	if _, err := m.AcquireBatch(context.Background(), "w", 8, 0, nil); err != nil {
		t.Fatalf("full batch after cancelled attempts: %v", err)
	}
}

// TestAcquireBatchConcurrent races many batch acquisitions against the
// capacity cap under -race: grants must never exceed MaxLive and every
// granted lease must carry a unique name.
func TestAcquireBatchConcurrent(t *testing.T) {
	const (
		capacity = 128
		workers  = 8
		batch    = 8
		rounds   = 20
	)
	m, _ := newCappedManager(t, capacity)
	var mu sync.Mutex
	held := map[int]string{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				leases, err := m.AcquireBatch(context.Background(), "w", batch, 0, nil)
				if errors.Is(err, ErrCapacity) {
					continue
				}
				if err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
				mu.Lock()
				for _, l := range leases {
					if owner, dup := held[l.Name]; dup {
						t.Errorf("name %d granted to two live holders (%s)", l.Name, owner)
					}
					held[l.Name] = "w"
				}
				mu.Unlock()
				for _, l := range leases {
					mu.Lock()
					delete(held, l.Name)
					mu.Unlock()
					if err := release1(m, l.Name, l.Token); err != nil {
						t.Errorf("release %d: %v", l.Name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Metrics(); got.Live != 0 {
		t.Fatalf("Live = %d after all batches released, want 0", got.Live)
	}
}
