package lease

import (
	"errors"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// TestAcquireSweepsBeforeRejecting: capacity rejection must reclaim
// expired leases first, on every path. Fill the cap with short leases, let
// them lapse, and acquire again without any explicit sweep.
func TestAcquireSweepsBeforeRejecting(t *testing.T) {
	nm, err := renaming.NewLevelArray(16)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, MaxLive: 2, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	for i := 0; i < 2; i++ {
		if _, err := acquire1(m, "w", time.Second, nil); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	clk.Advance(2 * time.Second)
	// Both leases are expired but unreclaimed; both capacity slots must be
	// recoverable without SweepOnce.
	for i := 0; i < 2; i++ {
		if _, err := acquire1(m, "w", 0, nil); err != nil {
			t.Fatalf("acquire over expired leases %d: %v", i, err)
		}
	}
	if _, err := acquire1(m, "w", 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("acquire over live leases = %v, want ErrCapacity", err)
	}
	if mt := m.Metrics(); mt.Expired != 2 || mt.Live != 2 {
		t.Fatalf("metrics = %+v", mt)
	}
}

// hookClock is a fakeClock whose Now() can fire a one-shot side effect,
// used to interleave another operation inside a specific window of an
// in-flight Acquire (between the namer call and the lease-table insert).
type hookClock struct {
	mu   sync.Mutex
	t    time.Time
	hook func()
}

func (c *hookClock) Now() time.Time {
	c.mu.Lock()
	h := c.hook
	c.hook = nil
	c.mu.Unlock()
	if h != nil {
		h()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *hookClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestAcquireCapacityRaceReclaimsExpired is the regression test for the
// pre-sharding bug: an Acquire that lost the capacity race between its
// pre-check and its grant failed with ErrCapacity *without* reclaiming
// expired leases, so a name that had already lapsed blocked the grant.
//
// The interleaving is reproduced deterministically with a clock hook: the
// outer Acquire stamps its lease's ExpiresAt via Now() after naming, and
// the hook uses that window to run a full interloper Acquire and then
// expire it. The old recheck then saw the table at MaxLive and rejected
// the outer call even though its sole occupant was expired. Under
// reservation semantics the outer Acquire already holds the capacity slot
// before naming, so it is the interloper that is turned away (after a
// sweep found nothing reclaimable), and the outer grant must succeed.
func TestAcquireCapacityRaceReclaimsExpired(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := &hookClock{t: time.Unix(1000, 0)}
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, MaxLive: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	var innerErr error
	clk.mu.Lock()
	clk.hook = func() {
		_, innerErr = acquire1(m, "interloper", time.Second, nil)
		clk.Advance(2 * time.Second)
	}
	clk.mu.Unlock()

	l, err := acquire1(m, "outer", 0, nil)
	if err != nil {
		t.Fatalf("outer Acquire = %v; capacity race rejected a grant while holding the reservation", err)
	}
	if !errors.Is(innerErr, ErrCapacity) {
		t.Fatalf("interloper Acquire = %v, want ErrCapacity (slot reserved by in-flight outer)", innerErr)
	}
	if got, ok := get1(m, l.Name); !ok || got.Token != l.Token {
		t.Fatalf("outer lease not live: %+v, %v", got, ok)
	}
	if mt := m.Metrics(); mt.Live != 1 {
		t.Fatalf("metrics = %+v, want exactly the outer lease live", mt)
	}
}

// TestSetMaxLiveShrinkWithExpiredPending is the clock-injected shrink
// regression: the cap is lowered while EXPIRED leases still occupy
// reservation slots. The reserve path at the new, smaller cap must
// reclaim them before rejecting — a shrink must not wedge acquisition
// behind corpses — and the post-shrink cap must then hold exactly.
func TestSetMaxLiveShrinkWithExpiredPending(t *testing.T) {
	nm, err := renaming.NewLevelArray(16)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, MaxLive: 4, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	for i := 0; i < 4; i++ {
		if _, err := acquire1(m, "w", time.Second, nil); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	clk.Advance(2 * time.Second)
	// All four leases are expired but unreclaimed; the reservation counter
	// still reads 4. Shrink underneath them.
	if err := m.SetMaxLive(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := acquire1(m, "w", 0, nil); err != nil {
			t.Fatalf("acquire %d over expired leases after shrink: %v", i, err)
		}
	}
	if _, err := acquire1(m, "w", 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("acquire over the shrunk cap = %v, want ErrCapacity", err)
	}
	mt := m.Metrics()
	if mt.MaxLive != 2 || mt.Resizes != 1 || mt.Live != 2 || mt.Expired != 4 {
		t.Fatalf("metrics = %+v, want MaxLive 2, Resizes 1, Live 2, Expired 4", mt)
	}
}

// TestSetMaxLiveShrinkBelowLive pins the documented shrink-below-live
// semantics: live holders ride to expiry (or release), new acquires
// fail until attrition brings live under the new cap, and nothing is
// revoked by the shrink itself.
func TestSetMaxLiveShrinkBelowLive(t *testing.T) {
	nm, err := renaming.NewLevelArray(16)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, MaxLive: 4, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	leases := make([]Lease, 0, 4)
	for i := 0; i < 4; i++ {
		l, err := acquire1(m, "w", 0, nil)
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		leases = append(leases, l)
	}
	if err := m.SetMaxLive(2); err != nil {
		t.Fatal(err)
	}
	// All four holders survive the shrink and can still renew.
	for _, l := range leases {
		if _, err := renew1(m, l.Name, l.Token, 0); err != nil {
			t.Fatalf("Renew(%d) after shrink: %v", l.Name, err)
		}
	}
	if mt := m.Metrics(); mt.Live != 4 || mt.MaxLive != 2 {
		t.Fatalf("metrics = %+v, want 4 riders over a cap of 2", mt)
	}
	if _, err := acquire1(m, "w", 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("acquire with live > cap = %v, want ErrCapacity", err)
	}
	// Attrition: releasing down to the cap is not enough (live == cap is
	// full); one below opens exactly one slot.
	for i := 0; i < 3; i++ {
		if err := release1(m, leases[i].Name, leases[i].Token); err != nil {
			t.Fatalf("Release %d: %v", i, err)
		}
	}
	if _, err := acquire1(m, "w", 0, nil); err != nil {
		t.Fatalf("acquire after attrition under the cap: %v", err)
	}
	if _, err := acquire1(m, "w", 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("acquire at the refilled cap = %v, want ErrCapacity", err)
	}
}

// TestSetMaxLiveRacesReserveAndSweep hammers the lock-free reserve path
// and the sweeper while the cap flaps underneath them — the -race proof
// that SetMaxLive's atomic conversion kept reserve lock-free and tear-
// free. Liveness and the race detector are the assertions; the final
// settle checks the counters still reconcile.
func TestSetMaxLiveRacesReserveAndSweep(t *testing.T) {
	nm, err := renaming.NewLevelArray(256)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: -1, MaxLive: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []Lease
			for i := 0; i < 300; i++ {
				l, err := acquire1(m, "w", 0, nil)
				if err != nil {
					if !errors.Is(err, ErrCapacity) {
						t.Errorf("Acquire: %v", err)
						return
					}
					for _, h := range held {
						if err := release1(m, h.Name, h.Token); err != nil {
							t.Errorf("Release: %v", err)
						}
					}
					held = held[:0]
					continue
				}
				held = append(held, l)
			}
			for _, h := range held {
				if err := release1(m, h.Name, h.Token); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m.SweepOnce()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		caps := []int{8, 64, 2, 0, 32}
		for i := 0; i < 200; i++ {
			if err := m.SetMaxLive(caps[i%len(caps)]); err != nil {
				t.Errorf("SetMaxLive: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	mt := m.Metrics()
	if mt.Resizes != 200 {
		t.Fatalf("Resizes = %d, want 200", mt.Resizes)
	}
	if mt.Live != 0 || mt.Reserved != 0 {
		t.Fatalf("metrics after full release = %+v, want empty table", mt)
	}
}

// TestMetricsExposesSweepAndReservedCounters: the Metrics fields the
// telemetry exposition scrapes — CapacitySweeps counts at-capacity
// sweep passes actually run, and Reserved tracks reservations + held
// leases (equal to Live when no acquire is in flight).
func TestMetricsExposesSweepAndReservedCounters(t *testing.T) {
	nm, err := renaming.NewLevelArray(16)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, MaxLive: 2, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	for i := 0; i < 2; i++ {
		if _, err := acquire1(m, "w", time.Second, nil); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if mt := m.Metrics(); mt.Reserved != 2 || mt.Live != 2 {
		t.Fatalf("Reserved = %d, Live = %d, want 2, 2", mt.Reserved, mt.Live)
	}
	clk.Advance(2 * time.Second)
	// This acquire finds the table full and runs the at-capacity sweep.
	if _, err := acquire1(m, "w", 0, nil); err != nil {
		t.Fatalf("acquire over expired leases: %v", err)
	}
	mt := m.Metrics()
	if mt.CapacitySweeps < 1 {
		t.Fatalf("CapacitySweeps = %d, want >= 1", mt.CapacitySweeps)
	}
	if mt.CapacitySweepJoins != 0 {
		t.Fatalf("CapacitySweepJoins = %d, want 0 (no concurrent acquirers)", mt.CapacitySweepJoins)
	}
	if mt.Reserved != int64(mt.Live) {
		t.Fatalf("Reserved = %d disagrees with Live = %d at rest", mt.Reserved, mt.Live)
	}
}
