package lease

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// TestCapacitySweepSingleFlight pins the reserve-path fix: concurrent
// acquires rejected at MaxLive must coalesce onto ONE reclaim sweep
// instead of each locking every stripe. The interleaving is built
// deterministically with a clock hook: the leader's reclaimForCapacity
// registers its in-flight call and then reads the clock, whose hook
// launches the would-be stampede and parks the leader until every
// straggler has joined the registered call. One sweepAll then serves all
// of them.
func TestCapacitySweepSingleFlight(t *testing.T) {
	const (
		maxLive = 4
		waiters = 6
	)
	nm, err := renaming.NewLevelArray(64)
	if err != nil {
		t.Fatal(err)
	}
	clk := &hookClock{t: time.Unix(1000, 0)}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: -1, MaxLive: maxLive, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < maxLive; i++ {
		if _, err := acquire1(m, "holder", 0, nil); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	waitErrs := make([]error, waiters)
	clk.mu.Lock()
	clk.hook = func() {
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, waitErrs[i] = acquire1(m, "straggler", 0, nil)
			}(i)
		}
		deadline := time.Now().Add(10 * time.Second)
		for m.capSweepJoined.Load() < waiters {
			if time.Now().After(deadline) {
				t.Error("stragglers never joined the in-flight capacity sweep")
				return
			}
			time.Sleep(time.Microsecond)
		}
	}
	clk.mu.Unlock()

	if _, err := acquire1(m, "leader", 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("leader acquire = %v, want ErrCapacity", err)
	}
	wg.Wait()
	for i, err := range waitErrs {
		if !errors.Is(err, ErrCapacity) {
			t.Fatalf("straggler %d err = %v, want ErrCapacity", i, err)
		}
	}
	if runs := m.capSweepsRun.Load(); runs != 1 {
		t.Fatalf("capacity sweeps run = %d for %d concurrent rejections, want 1 (single-flight)",
			runs, waiters+1)
	}
	if joined := m.capSweepJoined.Load(); joined != waiters {
		t.Fatalf("sweeps joined = %d, want %d", joined, waiters)
	}
}

// TestCapacitySweepWorkBounded counts total sweep work under sustained
// ErrCapacity load: with the table full of live leases, every rejected
// acquire performs exactly one reclaim verdict — run or joined, never
// more — so total sweep invocations (run + joined) equal the rejection
// count instead of multiplying with retries, and the run share shrinks
// whenever rejections overlap. Run with -race.
func TestCapacitySweepWorkBounded(t *testing.T) {
	const (
		maxLive = 8
		workers = 8
		rounds  = 50
	)
	nm, err := renaming.NewLevelArray(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: -1, MaxLive: maxLive})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < maxLive; i++ {
		if _, err := acquire1(m, "holder", time.Hour, nil); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := acquire1(m, "storm", 0, nil); !errors.Is(err, ErrCapacity) {
					t.Errorf("storm acquire = %v, want ErrCapacity", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const failures = workers * rounds
	run, joined := m.capSweepsRun.Load(), m.capSweepJoined.Load()
	if run+joined != failures {
		t.Fatalf("sweep verdicts = %d run + %d joined = %d, want exactly %d (one per rejection)",
			run, joined, run+joined, failures)
	}
	if mt := m.Metrics(); mt.Rejected != failures {
		t.Fatalf("Rejected = %d, want %d", mt.Rejected, failures)
	}
}

// TestClosedOperationsCountRejected pins the shutdown accounting fix: the
// early ErrClosed returns used to skip m.rejected while every other
// refusal counted, so Metrics.Rejected under-reported during drain. Every
// post-Close operation must now bump it exactly once.
func TestClosedOperationsCountRejected(t *testing.T) {
	m, _ := newTestManager(t, 8)
	l, err := acquire1(m, "w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	base := m.Metrics().Rejected

	ctx := context.Background()
	ops := []struct {
		name string
		call func() error
	}{
		{"AcquireBatch(1)", func() error { _, err := m.AcquireBatch(ctx, "w", 1, 0, nil); return err }},
		{"AcquireBatch(2)", func() error { _, err := m.AcquireBatch(ctx, "w", 2, 0, nil); return err }},
		{"RenewBatch", func() error {
			_, err := m.RenewBatch(ctx, []RenewItem{{Name: l.Name, Token: l.Token}}, 0)
			return err
		}},
		{"ReleaseBatch", func() error {
			_, err := m.ReleaseBatch(ctx, []ReleaseItem{{Name: l.Name, Token: l.Token}})
			return err
		}},
	}
	for i, op := range ops {
		if err := op.call(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Close = %v, want ErrClosed", op.name, err)
		}
		if got, want := m.Metrics().Rejected, base+int64(i+1); got != want {
			t.Fatalf("Rejected after closed %s = %d, want %d", op.name, got, want)
		}
	}
}
