package lease

import (
	"context"
	"testing"
	"time"

	renaming "repro"
)

// blockingNamer wraps a real namer but parks every Release until the
// test says go, signalling entry on released. It pins the reclaim-path
// locking contract: namer.Release is outside this package's control and
// may block arbitrarily long, so no stripe mutex may be held across it.
type blockingNamer struct {
	renaming.Namer
	released chan int      // one send per Release entry
	gate     chan struct{} // Release proceeds when closed (or receives)
}

func (b *blockingNamer) Release(name int) error {
	b.released <- name
	<-b.gate
	return b.Namer.Release(name)
}

// TestSweepReleasesOutsideStripeLock drives a sweep whose namer.Release
// blocks and asserts that operations on another lease in the SAME stripe
// still complete — i.e. the expired name was collected under the lock
// but handed back after unlock. Pre-fix this deadlocked: sweepLocked
// called namer.Release while holding the stripe mutex, so one slow
// reclaim stalled every renewal routed to the stripe.
func TestSweepReleasesOutsideStripeLock(t *testing.T) {
	inner, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	bn := &blockingNamer{Namer: inner, released: make(chan int, 8), gate: make(chan struct{})}
	clk := newFakeClock()
	// Shards: 1 forces every name into one stripe, making the test
	// deterministic: if the sweep held the stripe lock across Release,
	// ANY other operation would hang.
	m, err := New(bn, Config{TTL: 10 * time.Second, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(bn.gate) // let Close's drain releases through
		m.Close()
	}()

	doomed, err := acquire1(m, "doomed", 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := acquire1(m, "alive", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second) // past doomed's TTL, within alive's

	sweepDone := make(chan int)
	go func() { sweepDone <- m.SweepOnce() }()

	// Wait until the sweep is inside the blocked namer.Release.
	select {
	case name := <-bn.released:
		if name != doomed.Name {
			t.Fatalf("sweep released name %d, want %d", name, doomed.Name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never reached namer.Release")
	}

	// The stripe must be free while Release blocks: renew, get and
	// release on the surviving lease all complete.
	opsDone := make(chan error, 1)
	go func() {
		if _, err := renew1(m, alive.Name, alive.Token, 0); err != nil {
			opsDone <- err
			return
		}
		if _, ok := m.Get(alive.Name); !ok {
			opsDone <- ErrUnknownName
			return
		}
		opsDone <- nil
	}()
	select {
	case err := <-opsDone:
		if err != nil {
			t.Fatalf("stripe operation failed during blocked reclaim: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stripe operations hung while namer.Release blocked: reclaim holds the stripe lock")
	}

	// The doomed lease must already be gone from the table (dropped under
	// the lock) even though the namer hand-back is still in flight.
	if _, ok := m.Get(doomed.Name); ok {
		t.Fatal("expired lease still visible during its namer hand-back")
	}

	bn.gate <- struct{}{} // release the parked namer.Release
	select {
	case n := <-sweepDone:
		if n != 1 {
			t.Fatalf("sweep reclaimed %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never finished after namer.Release unblocked")
	}
	if got := m.Metrics().Expired; got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}
}

// TestLazyExpiryReleasesOutsideStripeLock covers the lazy reclaim paths
// (Renew/Release/Get on a lapsed lease) the same way: while the lapsed
// lease's hand-back blocks, its stripe keeps serving.
func TestLazyExpiryReleasesOutsideStripeLock(t *testing.T) {
	inner, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	bn := &blockingNamer{Namer: inner, released: make(chan int, 8), gate: make(chan struct{})}
	clk := newFakeClock()
	m, err := New(bn, Config{TTL: 10 * time.Second, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(bn.gate)
		m.Close()
	}()
	doomed, err := acquire1(m, "doomed", 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := acquire1(m, "alive", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)

	renewErr := make(chan error)
	go func() {
		_, err := renew1(m, doomed.Name, doomed.Token, 0) // lazy reclaim: ErrExpired + hand-back
		renewErr <- err
	}()
	select {
	case <-bn.released:
	case <-time.After(5 * time.Second):
		t.Fatal("lazy reclaim never reached namer.Release")
	}
	opsDone := make(chan error, 1)
	go func() {
		_, err := renew1(m, alive.Name, alive.Token, 0)
		opsDone <- err
	}()
	select {
	case err := <-opsDone:
		if err != nil {
			t.Fatalf("stripe renewal failed during blocked lazy reclaim: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stripe renewal hung while a lazy reclaim's namer.Release blocked")
	}
	bn.gate <- struct{}{}
	if err := <-renewErr; err != ErrExpired {
		t.Fatalf("lazy-reclaim Renew returned %v, want ErrExpired", err)
	}
}

// TestReclaimFailedAccountingPreserved pins that moving the hand-back
// outside the lock kept the ReclaimFailed accounting: a namer that
// refuses returned names is still counted, on both the sweep and batch
// paths.
func TestReclaimFailedAccountingPreserved(t *testing.T) {
	nm, err := renaming.NewMoirAnderson(8) // one-shot: every Release fails
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := acquire1(m, "a", 2*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	b, err := acquire1(m, "b", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if n := m.SweepOnce(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if got := m.Metrics().ReclaimFailed; got != 1 {
		t.Fatalf("ReclaimFailed = %d after sweep, want 1", got)
	}
	// Voluntary release through the batch path: the namer error is the
	// per-item outcome AND counts as a failed reclaim.
	results, err := m.ReleaseBatch(context.Background(), []ReleaseItem{{Name: b.Name, Token: b.Token}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("one-shot namer's Release error not propagated through ReleaseBatch")
	}
	if got := m.Metrics().ReclaimFailed; got != 2 {
		t.Fatalf("ReclaimFailed = %d after batch release, want 2", got)
	}
}
