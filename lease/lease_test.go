package lease

import (
	"errors"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// fakeClock is a manually advanced clock shared by a Manager and its test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestManager builds a manager over a LevelArray namer with a fake
// clock and no background sweeper, so tests control time and reclamation.
func newTestManager(t *testing.T, capacity int) (*Manager, *fakeClock) {
	t.Helper()
	nm, err := renaming.NewLevelArray(capacity)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{
		TTL:           10 * time.Second,
		SweepInterval: -1,
		Now:           clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, clk
}

func TestAcquireRenewReleaseRoundTrip(t *testing.T) {
	m, clk := newTestManager(t, 8)
	l, err := acquire1(m, "worker-1", 0, map[string]string{"zone": "a"})
	if err != nil {
		t.Fatal(err)
	}
	if l.Owner != "worker-1" || l.Meta["zone"] != "a" {
		t.Fatalf("lease fields wrong: %+v", l)
	}
	if want := clk.Now().Add(10 * time.Second); !l.ExpiresAt.Equal(want) {
		t.Fatalf("ExpiresAt = %v, want %v", l.ExpiresAt, want)
	}
	clk.Advance(5 * time.Second)
	renewed, err := renew1(m, l.Name, l.Token, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := clk.Now().Add(10 * time.Second); !renewed.ExpiresAt.Equal(want) {
		t.Fatalf("renewed ExpiresAt = %v, want %v", renewed.ExpiresAt, want)
	}
	if got, ok := m.Get(l.Name); !ok || got.Token != l.Token {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if err := release1(m, l.Name, l.Token); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(l.Name); ok {
		t.Fatal("lease still live after Release")
	}
	mt := m.Metrics()
	if mt.Acquired != 1 || mt.Renewed != 1 || mt.Released != 1 || mt.Live != 0 {
		t.Fatalf("metrics = %+v", mt)
	}
}

func TestTTLClamping(t *testing.T) {
	m, clk := newTestManager(t, 4)
	// Requested TTL beyond MaxTTL (10×TTL = 100s) is capped.
	l, err := acquire1(m, "w", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := clk.Now().Add(100 * time.Second); !l.ExpiresAt.Equal(want) {
		t.Fatalf("capped ExpiresAt = %v, want %v", l.ExpiresAt, want)
	}
	// Explicit short TTL is honored.
	l2, err := acquire1(m, "w", time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := clk.Now().Add(time.Second); !l2.ExpiresAt.Equal(want) {
		t.Fatalf("short ExpiresAt = %v, want %v", l2.ExpiresAt, want)
	}
}

func TestExpiryReclaimedBySweep(t *testing.T) {
	m, clk := newTestManager(t, 4)
	l, err := acquire1(m, "w", time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if n := m.SweepOnce(); n != 1 {
		t.Fatalf("SweepOnce reclaimed %d, want 1", n)
	}
	if _, ok := m.Get(l.Name); ok {
		t.Fatal("expired lease still live")
	}
	if mt := m.Metrics(); mt.Expired != 1 || mt.Live != 0 {
		t.Fatalf("metrics = %+v", mt)
	}
	// The name is back in the pool: with capacity 4 we can hold 4 again.
	for i := 0; i < 4; i++ {
		if _, err := acquire1(m, "w", 0, nil); err != nil {
			t.Fatalf("post-reclaim acquire %d: %v", i, err)
		}
	}
}

func TestRenewAfterExpiryFails(t *testing.T) {
	m, clk := newTestManager(t, 4)
	l, err := acquire1(m, "w", time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if _, err := renew1(m, l.Name, l.Token, 0); !errors.Is(err, ErrExpired) {
		t.Fatalf("Renew after expiry = %v, want ErrExpired", err)
	}
	// The late renewal itself reclaimed the name.
	if _, ok := m.Get(l.Name); ok {
		t.Fatal("lease live after failed renewal")
	}
}

func TestFencingTokens(t *testing.T) {
	m, _ := newTestManager(t, 4)
	l, err := acquire1(m, "w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := renew1(m, l.Name, l.Token+1, 0); !errors.Is(err, ErrWrongToken) {
		t.Fatalf("Renew with bad token = %v, want ErrWrongToken", err)
	}
	if err := release1(m, l.Name, l.Token+1); !errors.Is(err, ErrWrongToken) {
		t.Fatalf("Release with bad token = %v, want ErrWrongToken", err)
	}
	if err := release1(m, l.Name, l.Token); err != nil {
		t.Fatal(err)
	}
	// A re-acquired name gets a fresh token; the stale one stays dead.
	l2, err := acquire1(m, "w2", 0, nil)
	for err != nil || l2.Name != l.Name {
		// LevelArray probes randomly; drain acquisitions until the slot
		// recycles (bounded by the namespace size).
		if err != nil {
			t.Fatal(err)
		}
		l2, err = acquire1(m, "w2", 0, nil)
	}
	if l2.Token == l.Token {
		t.Fatal("recycled name reused fencing token")
	}
	if _, err := renew1(m, l.Name, l.Token, 0); !errors.Is(err, ErrWrongToken) {
		t.Fatalf("stale holder renewed a recycled name: %v", err)
	}
}

func TestUnknownName(t *testing.T) {
	m, _ := newTestManager(t, 4)
	if _, err := renew1(m, 0, 1, 0); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("Renew unknown = %v", err)
	}
	if err := release1(m, 0, 1); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("Release unknown = %v", err)
	}
}

func TestNamespaceExhausted(t *testing.T) {
	m, _ := newTestManager(t, 1)
	// Capacity 1 => namespace 2; the pool is dry after two acquisitions.
	for i := 0; i < m.Namespace(); i++ {
		if _, err := acquire1(m, "w", 0, nil); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	_, err := acquire1(m, "w", 0, nil)
	if !errors.Is(err, renaming.ErrNamespaceExhausted) {
		t.Fatalf("over-capacity acquire = %v, want ErrNamespaceExhausted", err)
	}
}

func TestMaxLiveCapEnforced(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{
		TTL:           10 * time.Second,
		SweepInterval: -1,
		MaxLive:       2,
		Now:           clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	l1, err := acquire1(m, "w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acquire1(m, "w", 0, nil); err != nil {
		t.Fatal(err)
	}
	// The namer has ~16 free slots, but the cap says no.
	if _, err := acquire1(m, "w", 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-cap acquire = %v, want ErrCapacity", err)
	}
	// Releasing frees a cap slot immediately.
	if err := release1(m, l1.Name, l1.Token); err != nil {
		t.Fatal(err)
	}
	if _, err := acquire1(m, "w", 0, nil); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	// Capacity pressure reclaims expired leases without waiting for the
	// sweeper: advance past TTL and the cap opens up again.
	clk.Advance(time.Minute)
	if _, err := acquire1(m, "w", 0, nil); err != nil {
		t.Fatalf("acquire under pressure after expiry: %v", err)
	}
}

func TestReleaseAfterExpiryFails(t *testing.T) {
	m, clk := newTestManager(t, 4)
	l, err := acquire1(m, "w", time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if err := release1(m, l.Name, l.Token); !errors.Is(err, ErrExpired) {
		t.Fatalf("Release after expiry = %v, want ErrExpired", err)
	}
	// The failed release reclaimed the name (counted as expired, not
	// released).
	if mt := m.Metrics(); mt.Expired != 1 || mt.Released != 0 || mt.Live != 0 {
		t.Fatalf("metrics = %+v", mt)
	}
}

func TestLeasesSnapshotSortedAndIsolated(t *testing.T) {
	m, _ := newTestManager(t, 8)
	meta := map[string]string{"k": "v"}
	for i := 0; i < 5; i++ {
		if _, err := acquire1(m, "w", 0, meta); err != nil {
			t.Fatal(err)
		}
	}
	meta["k"] = "mutated-after-acquire"
	ls := m.Leases()
	if len(ls) != 5 {
		t.Fatalf("Leases() returned %d, want 5", len(ls))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i-1].Name >= ls[i].Name {
			t.Fatal("Leases() not sorted by name")
		}
	}
	if ls[0].Meta["k"] != "v" {
		t.Fatal("caller mutation leaked into stored lease meta")
	}
	ls[0].Meta["k"] = "mutated-after-snapshot"
	if got, _ := m.Get(ls[0].Name); got.Meta["k"] != "v" {
		t.Fatal("snapshot mutation leaked into stored lease meta")
	}
}

func TestBackgroundSweeper(t *testing.T) {
	nm, err := renaming.NewLevelArray(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: 20 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := acquire1(m, "w", 0, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Metrics().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sweeper never reclaimed the expired lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if mt := m.Metrics(); mt.Live != 0 {
		t.Fatalf("metrics after sweep = %+v", mt)
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	nm, err := renaming.NewLevelArray(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := acquire1(m, "w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, err := acquire1(m, "w", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close = %v", err)
	}
	if _, err := renew1(m, l.Name, l.Token, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Renew after Close = %v", err)
	}
	// The namer got its name back: a fresh manager can hand out capacity.
	m2, err := New(nm, Config{SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for i := 0; i < 4; i++ {
		if _, err := acquire1(m2, "w", 0, nil); err != nil {
			t.Fatalf("acquire %d on reused namer: %v", i, err)
		}
	}
}

// TestConcurrentLeaseChurn hammers the manager from many goroutines under
// -race: acquire, renew a few times, release, repeat. No operation on a
// correctly-held lease may fail.
func TestConcurrentLeaseChurn(t *testing.T) {
	nm, err := renaming.NewLevelArray(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const (
		workers = 16
		cycles  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				l, err := acquire1(m, "worker", 0, nil)
				if err != nil {
					t.Errorf("worker %d acquire: %v", id, err)
					return
				}
				for r := 0; r < 3; r++ {
					if _, err := renew1(m, l.Name, l.Token, 0); err != nil {
						t.Errorf("worker %d renew: %v", id, err)
						return
					}
				}
				if err := release1(m, l.Name, l.Token); err != nil {
					t.Errorf("worker %d release: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if mt := m.Metrics(); mt.Live != 0 {
		t.Fatalf("leases leaked: %+v", mt)
	}
}
