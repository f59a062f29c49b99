package lease

import (
	"context"
	"testing"
	"time"

	renaming "repro"
)

// TestRenewRacingSweepPopSurvives pins the stale-heap-entry protocol
// under its nastiest interleaving: a sweep has already read its clock and
// is about to pop a lease's old expiry entry when a renewal lands and
// moves the deadline forward. The popped entry is then stale — same
// token, older deadline — and the sweep must skip it rather than reclaim
// the freshly renewed lease.
//
// The interleaving is deterministic via a clock hook: SweepOnce's Now()
// call fires a hook that (in a separate goroutine, so -race watches the
// handoff) renews the lease at T0+9s — one second before its original
// T0+10s deadline, extending it to T0+19s — and then advances the clock
// to T0+11s. The sweep therefore runs with now = T0+11s: past the old
// entry's deadline, inside the renewed one's.
func TestRenewRacingSweepPopSurvives(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := &hookClock{t: time.Unix(1000, 0)}
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	l, err := acquire1(m, "hb", 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}

	var renewed Lease
	clk.mu.Lock()
	clk.hook = func() {
		clk.Advance(9 * time.Second) // T0+9: lease live for one more second
		done := make(chan struct{})
		go func() {
			defer close(done)
			var rerr error
			renewed, rerr = renew1(m, l.Name, l.Token, 10*time.Second)
			if rerr != nil {
				t.Errorf("renew racing sweep: %v", rerr)
			}
		}()
		<-done
		clk.Advance(2 * time.Second) // T0+11: past the OLD deadline only
	}
	clk.mu.Unlock()

	if n := m.SweepOnce(); n != 0 {
		t.Fatalf("sweep reclaimed %d leases popping a stale entry, want 0 — renewed lease lost", n)
	}
	got, ok := get1(m, l.Name)
	if !ok {
		t.Fatal("renewed lease gone after sweep popped its stale heap entry")
	}
	if !got.ExpiresAt.Equal(renewed.ExpiresAt) {
		t.Fatalf("lease deadline = %v, want renewed %v", got.ExpiresAt, renewed.ExpiresAt)
	}
	if mt := m.Metrics(); mt.Expired != 0 || mt.Live != 1 {
		t.Fatalf("metrics = %+v, want Expired 0 and the renewed lease live", mt)
	}
	// The holder's token still fences: a follow-up heartbeat succeeds.
	if _, err := renew1(m, l.Name, l.Token, 0); err != nil {
		t.Fatalf("heartbeat after the race: %v", err)
	}
}

// TestHeapBoundedUnderPureHeartbeat drives a renewal-only workload — no
// acquires, no releases, no sweeper: 200 heartbeat rounds over 128 leases.
// Named for the lazy expiry heap this workload used to grow by one entry
// per renewal; what it pins now is that renewals only rewrite slots — the
// table keeps its first size and its occupied count round after round.
func TestHeapBoundedUnderPureHeartbeat(t *testing.T) {
	const (
		live   = 128
		rounds = 200
	)
	nm, err := renaming.NewLevelArray(256)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	// Shards: 1 keeps every lease in one stripe so the bound is exact.
	m, err := New(nm, Config{TTL: time.Hour, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	leases, err := m.AcquireBatch(context.Background(), "hb", live, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]RenewItem, live)
	for i, l := range leases {
		items[i] = RenewItem{Name: l.Name, Token: l.Token}
	}
	for round := 0; round < rounds; round++ {
		clk.Advance(time.Second)
		results, err := m.RenewBatch(context.Background(), items, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("round %d item %d: %v", round, i, r.Err)
			}
		}
		if slots, occupied := tableStats(m, 0); slots > nm.Namespace() || occupied != live {
			t.Fatalf("round %d: table has %d slots (namespace %d), %d occupied; want %d",
				round, slots, nm.Namespace(), occupied, live)
		}
	}
	if mt := m.Metrics(); mt.Renewed != int64(live*rounds) {
		t.Fatalf("Renewed = %d, want %d", mt.Renewed, live*rounds)
	}
	clk.Advance(2 * time.Hour)
	if n := m.SweepOnce(); n != live {
		t.Fatalf("SweepOnce after the heartbeats lapsed = %d, want %d", n, live)
	}
}
