package lease

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// walkAll collects one Walk, failing on a name yielded twice.
func walkAll(t *testing.T, tab Table) map[int]Lease {
	t.Helper()
	got := map[int]Lease{}
	err := tab.Walk(func(chunk []Lease) error {
		for _, l := range chunk {
			if _, dup := got[l.Name]; dup {
				t.Errorf("Walk yielded name %d twice", l.Name)
			}
			l.Meta = cloneMeta(l.Meta) // the chunk's maps are only valid inside yield
			got[l.Name] = l
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return got
}

// TestWalkYieldsOccupiedSlots: Walk is the table as a snapshot needs it —
// every occupied slot with its exact token, owner, metadata and expiry,
// lapsed-but-unreclaimed leases included (Leases filters those; a
// snapshot must not, their expire records are still to come).
func TestWalkYieldsOccupiedSlots(t *testing.T) {
	m, clk := newTestManager(t, 64)
	short, err := acquire1(m, "short", time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	held, err := m.AcquireBatch(context.Background(), "w", 40, 0, map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := release1(m, held[0].Name, held[0].Token); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // short has lapsed; nothing has reclaimed it
	renewed, err := renew1(m, held[1].Name, held[1].Token, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Lease{short, renewed}, held[2:]...)
	got := walkAll(t, m)
	if len(got) != len(want) || m.Occupied() != len(want) {
		t.Fatalf("Walk yielded %d leases, Occupied() = %d, want %d", len(got), m.Occupied(), len(want))
	}
	for _, w := range want {
		g := got[w.Name]
		if g.Token != w.Token || g.Owner != w.Owner || !g.ExpiresAt.Equal(w.ExpiresAt) || g.Meta["k"] != w.Meta["k"] {
			t.Fatalf("Walk yielded %+v for name %d, want %+v", g, w.Name, w)
		}
	}
	if live := len(m.Leases()); live != len(want)-1 {
		t.Fatalf("Leases() = %d, want %d (the lapsed lease filtered)", live, len(want)-1)
	}
	stop := errors.New("stop")
	if err := m.Walk(func([]Lease) error { return stop }); err != stop {
		t.Fatalf("Walk returned %v, want yield's error", err)
	}
}

// TestLeasesIsTheFilteredSortedWalk: Leases is Walk's table with the
// lapsed leases left out, metadata copied and names in order — read
// walkSpan slots per hold, so renewals landing between two holds move
// deadlines but never the set of names and tokens it reports.
func TestLeasesIsTheFilteredSortedWalk(t *testing.T) {
	nm, err := renaming.NewLevelArray(4 * walkSpan)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: time.Hour, SweepInterval: -1, Shards: 2, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	if _, err := m.AcquireBatch(ctx, "lapsing", 100, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	standing, err := m.AcquireBatch(ctx, "standing", 2*walkSpan, 0, map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // the hundred have lapsed; nothing reclaims them

	items := make([]RenewItem, len(standing))
	for i, l := range standing {
		items[i] = RenewItem{Name: l.Name, Token: l.Token}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.RenewBatch(ctx, items, 0); err != nil {
				t.Errorf("RenewBatch: %v", err)
				return
			}
		}
	}()
	for round := 0; round < 5; round++ {
		walked := walkAll(t, m)
		unlapsed := 0
		for _, l := range walked {
			if !l.ExpiresAt.Before(clk.Now()) {
				unlapsed++
			}
		}
		got := m.Leases()
		if len(got) != unlapsed || unlapsed != len(standing) {
			t.Fatalf("Leases() = %d leases, the walk has %d unlapsed, %d are held", len(got), unlapsed, len(standing))
		}
		for i, g := range got {
			w := walked[g.Name]
			if g.Token != w.Token || g.Owner != w.Owner || g.Meta["k"] != "v" || (i > 0 && got[i-1].Name >= g.Name) {
				t.Fatalf("Leases()[%d] = %+v: out of name order, or not the walk's %+v", i, g, w)
			}
			g.Meta["k"] = "scribbled" // the caller's own copy: the table must not see it
		}
	}
	close(stop)
	wg.Wait()
}

// TestWalkUnderResizeGrow: a stripe's table is re-allocated, longer,
// between two holds of a walk that is half-way through it — from inside
// yield, which runs with the stripe unlocked, and by a goroutine churning
// throughout. Every lease held from before the walk to after it must be
// yielded exactly once, and the slots the grow added are walked too.
func TestWalkUnderResizeGrow(t *testing.T) {
	nm, err := renaming.NewLevelArray(4 * walkSpan)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Hour, SweepInterval: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	standing, err := m.AcquireBatch(ctx, "standing", 2*walkSpan, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := nm.Namespace()
	if stripe := before / 2; stripe <= walkSpan {
		t.Fatalf("a stripe has %d slots, not more than one hold of %d: the test exercises nothing", stripe, walkSpan)
	}

	stopChurn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			if l, err := acquire1(m, "churn", 0, nil); err == nil {
				release1(m, l.Name, l.Token)
			}
		}
	}()

	var grown []Lease
	got := map[int]int{}
	chunks := 0
	err = m.Walk(func(chunk []Lease) error {
		if chunks++; chunks == 1 {
			if err := nm.Resize(16 * walkSpan); err != nil {
				return err
			}
			// Grants until some land beyond the old namespace, which
			// re-allocates their stripes' tables.
			for beyond := 0; beyond < 64; {
				l, err := acquire1(m, "grown", 0, nil)
				if err != nil {
					return err
				}
				grown = append(grown, l)
				if l.Name >= before {
					beyond++
				}
			}
		}
		for _, l := range chunk {
			got[l.Name]++
		}
		return nil
	})
	close(stopChurn)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range standing {
		if got[l.Name] != 1 {
			t.Fatalf("standing lease %d yielded %d times across the grow", l.Name, got[l.Name])
		}
	}
	for name, n := range got {
		if n != 1 {
			t.Fatalf("name %d yielded %d times", name, n)
		}
	}
	// The walk stood inside stripe 0's first span when the grow happened, so
	// every slot the re-allocation added, in either stripe, was still ahead
	// of it. (Mutation check: reading len(sh.slots) once per stripe instead
	// of once per hold loses stripe 0's.)
	for _, l := range grown {
		if l.Name >= before && got[l.Name] != 1 {
			t.Fatalf("lease %d, granted beyond the old table ahead of the walk, was yielded %d times", l.Name, got[l.Name])
		}
	}
}

// TestWalkAfterShutdownAndClose: Shutdown keeps the table — that is what
// the store's final snapshot is read from — and Close empties it.
func TestWalkAfterShutdownAndClose(t *testing.T) {
	m, _ := newTestManager(t, 16)
	held, err := m.AcquireBatch(context.Background(), "w", 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(); err != nil {
		t.Fatal(err)
	}
	got := walkAll(t, m)
	if len(got) != len(held) || m.Occupied() != len(held) {
		t.Fatalf("after Shutdown Walk yielded %d, Occupied() = %d, want %d", len(got), m.Occupied(), len(held))
	}
	for _, l := range held {
		if got[l.Name].Token != l.Token {
			t.Fatalf("name %d walked with token %d, want %d", l.Name, got[l.Name].Token, l.Token)
		}
	}

	closed, _ := newTestManager(t, 16)
	if _, err := closed.AcquireBatch(context.Background(), "w", 10, 0, nil); err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if got := walkAll(t, closed); len(got) != 0 || closed.Occupied() != 0 {
		t.Fatalf("after Close Walk yielded %d, Occupied() = %d, want nothing", len(got), closed.Occupied())
	}
}

// tableObserver records ObserveTable and reads the table from inside it,
// which would deadlock if the hand-over ran under a stripe lock.
type tableObserver struct {
	recordingObserver
	table    Table
	occupied int
	names    []int
}

func (o *tableObserver) ObserveTable(t Table) {
	o.table, o.occupied = t, t.Occupied()
	t.Walk(func(chunk []Lease) error {
		for _, l := range chunk {
			o.names = append(o.names, l.Name)
		}
		return nil
	})
}

// TestRestoreHandsOverTheTable: the table reaches the observer as the
// last act of a successful Restore — complete, restored leases and all —
// and not at all from one that failed in Adopt, whose half-built table a
// snapshot must never be read from.
func TestRestoreHandsOverTheTable(t *testing.T) {
	boot := func(obs Observer) (*Manager, *fakeClock) {
		nm, err := renaming.NewLevelArray(8)
		if err != nil {
			t.Fatal(err)
		}
		clk := newFakeClock()
		m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, Observer: obs, Now: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m, clk
	}

	failed := &tableObserver{}
	m, clk := boot(failed)
	exp := clk.Now().Add(time.Minute)
	_, _, err := m.Restore(RestoreState{Leases: []Lease{
		{Name: 1, Token: 1, ExpiresAt: exp},
		{Name: m.Namespace() + 5, Token: 2, ExpiresAt: exp}, // Adopt refuses it
	}})
	if err == nil {
		t.Fatal("Restore adopted a name outside the namespace")
	}
	if failed.table != nil {
		t.Fatal("a Restore that failed in Adopt handed its half-built table to the observer")
	}

	ok := &tableObserver{}
	m, clk = boot(ok)
	exp = clk.Now().Add(time.Minute)
	restored, expired, err := m.Restore(RestoreState{Token: 9, Leases: []Lease{
		{Name: 1, Token: 1, ExpiresAt: exp},
		{Name: 2, Token: 2, ExpiresAt: clk.Now().Add(-time.Second)}, // lapsed while down
		{Name: 6, Token: 3, ExpiresAt: exp},
	}})
	if err != nil || restored != 2 || expired != 1 {
		t.Fatalf("Restore = %d, %d, %v; want 2, 1, nil", restored, expired, err)
	}
	sort.Ints(ok.names)
	if ok.table != Table(m) || ok.occupied != 2 || len(ok.names) != 2 || ok.names[0] != 1 || ok.names[1] != 6 {
		t.Fatalf("observer was handed table %v with %d occupied, names %v; want the manager with names [1 6]",
			ok.table, ok.occupied, ok.names)
	}

	// A manager that never restores never hands its table over.
	never := &tableObserver{}
	m, _ = boot(never)
	if _, err := acquire1(m, "w", 0, nil); err != nil {
		t.Fatal(err)
	}
	if never.table != nil {
		t.Fatal("the table was handed over without a Restore")
	}
}
