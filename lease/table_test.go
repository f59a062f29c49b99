package lease

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"

	renaming "repro"
)

// TestSlotSize pins the slot at three words. Not taste: churn at half
// occupancy touches every page of LevelArray's 4n-name namespace, so the
// resident set of the durable churn workload is slot size times namespace.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 24 {
		t.Fatalf("slot is %d bytes, want <= 24", got)
	}
	if got := unsafe.Sizeof(shard{}); got != 64 {
		t.Fatalf("shard is %d bytes, want one 64-byte cache line", got)
	}
}

// tableStats reads stripe s's table length and occupied count.
func tableStats(m *Manager, s int) (slots, occupied int) {
	sh := &m.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.slots), sh.n
}

// The three tests below were written against the lazy expiry heap the
// stripes used to carry (hence their names): each drives, with the
// sweeper off, a workload that grew that heap without bound unless
// compaction kept up. They keep their workloads and assert what survives
// the heap: renewals and lazy reclaims leave the table at its first size —
// never beyond the namespace — with the right occupied count, and the
// lease still reclaims on the next due sweep.

// TestHeapCompactionBoundsMemory: 10,000 renewals of one lease.
func TestHeapCompactionBoundsMemory(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: time.Hour, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	l, err := acquire1(m, "w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := renew1(m, l.Name, l.Token, 0); err != nil {
			t.Fatal(err)
		}
	}
	if slots, occupied := tableStats(m, 0); slots > nm.Namespace() || occupied != 1 {
		t.Fatalf("table has %d slots (namespace %d) and %d occupied after 10,000 renewals of one lease", slots, nm.Namespace(), occupied)
	}
	clk.Advance(2 * time.Hour)
	if n := m.SweepOnce(); n != 1 {
		t.Fatalf("SweepOnce after the renewals = %d, want 1", n)
	}
}

// TestHeapCompactionOnLazyReclaim: 5,000 leases, each reclaimed lazily by
// a Get after its TTL.
func TestHeapCompactionOnLazyReclaim(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{TTL: time.Second, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 5000; i++ {
		l, err := acquire1(m, "w", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * time.Second)
		if _, ok := m.Get(l.Name); ok {
			t.Fatal("expired lease still live")
		}
	}
	if slots, occupied := tableStats(m, 0); slots > nm.Namespace() || occupied != 0 {
		t.Fatalf("table has %d slots (namespace %d) and %d occupied after 5,000 lazy reclaims", slots, nm.Namespace(), occupied)
	}
	if mt := m.Metrics(); mt.Expired != 5000 || mt.Live != 0 {
		t.Fatalf("metrics = %+v, want 5000 expired and none live", mt)
	}
	// The stale watermark those leases left behind costs a sweep one empty
	// pass, not a wrong reclaim.
	if n := m.SweepOnce(); n != 0 {
		t.Fatalf("SweepOnce over the emptied table = %d, want 0", n)
	}
}

// TestHostileNames: names off the table are ErrUnknownName on every lookup
// path — no panic, no allocation beyond a one-item batch call's own two,
// and above all no growth of the table.
func TestHostileNames(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := newBenchManager(t, shards)
			if _, err := m.AcquireBatch(context.Background(), "w", 64, 0, nil); err != nil {
				t.Fatal(err)
			}
			tableLen := func() (n int) {
				for s := range m.shards {
					slots, _ := tableStats(m, s)
					n += slots
				}
				return n
			}
			before := tableLen()
			ctx := context.Background()
			for _, name := range hostileNames(m) {
				if _, err := renew1(m, name, 1, 0); !errors.Is(err, ErrUnknownName) {
					t.Errorf("Renew(%d) = %v, want ErrUnknownName", name, err)
				}
				if err := release1(m, name, 1); !errors.Is(err, ErrUnknownName) {
					t.Errorf("Release(%d) = %v, want ErrUnknownName", name, err)
				}
				if l, ok := m.Get(name); ok {
					t.Errorf("Get(%d) = %+v, want no lease", name, l)
				}
				if got := testing.AllocsPerRun(20, func() {
					renew1(m, name, 1, 0)
					release1(m, name, 1)
					m.Get(name)
				}); got != 4 {
					t.Errorf("Renew+Release+Get(%d) allocate %v times, want 4 (two per batch call)", name, got)
				}
			}
			names := hostileNames(m)
			renews := make([]RenewItem, len(names))
			releases := make([]ReleaseItem, len(names))
			for i, name := range names {
				renews[i], releases[i] = RenewItem{Name: name, Token: 1}, ReleaseItem{Name: name, Token: 1}
			}
			rr, err := m.RenewBatch(ctx, renews, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rr {
				if !errors.Is(r.Err, ErrUnknownName) {
					t.Errorf("RenewBatch item %d (name %d) = %v, want ErrUnknownName", i, names[i], r.Err)
				}
			}
			lr, err := m.ReleaseBatch(ctx, releases)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range lr {
				if !errors.Is(r.Err, ErrUnknownName) {
					t.Errorf("ReleaseBatch item %d (name %d) = %v, want ErrUnknownName", i, names[i], r.Err)
				}
			}
			if after := tableLen(); after != before {
				t.Fatalf("table grew from %d to %d slots under hostile names", before, after)
			}
			if mt := m.Metrics(); mt.Live != 64 {
				t.Fatalf("Live = %d after hostile names, want the 64 real leases", mt.Live)
			}
		})
	}
}

// TestRestoreOutOfNamespace: a recovered lease whose name the namer does
// not have fails at Adopt, before any slot is written or the table sized.
func TestRestoreOutOfNamespace(t *testing.T) {
	m, clk := newTestManager(t, 8)
	_, _, err := m.Restore(RestoreState{Leases: []Lease{
		{Name: m.Namespace() + 1<<40, Token: 3, Owner: "w", ExpiresAt: clk.Now().Add(time.Minute)},
	}})
	if !errors.Is(err, renaming.ErrBadConfig) {
		t.Fatalf("Restore = %v, want the namer's ErrBadConfig", err)
	}
	for s := range m.shards {
		if slots, occupied := tableStats(m, s); slots != 0 || occupied != 0 {
			t.Fatalf("stripe %d has %d slots, %d occupied after a refused restore", s, slots, occupied)
		}
	}
}

// TestRestoredTokenZeroIsOccupied: occupancy is the holder pointer, not
// the token, so a restored lease carrying token 0 is a lease.
func TestRestoredTokenZeroIsOccupied(t *testing.T) {
	m, clk := newTestManager(t, 8)
	exp := clk.Now().Add(time.Minute)
	if restored, _, err := m.Restore(RestoreState{Leases: []Lease{{Name: 3, Token: 0, Owner: "w", ExpiresAt: exp}}}); err != nil || restored != 1 {
		t.Fatalf("Restore = %d, %v", restored, err)
	}
	l, ok := m.Get(3)
	if !ok || l.Token != 0 || l.Owner != "w" || !l.ExpiresAt.Equal(exp) {
		t.Fatalf("Get(3) = %+v, %v; want the restored token-0 lease", l, ok)
	}
	if _, err := renew1(m, 3, 0, 0); err != nil {
		t.Fatalf("Renew with token 0: %v", err)
	}
}

// TestTableRegrowsAfterResize: the table is sized once from the namespace
// and re-allocated, to the exact new size, only when a grant lands beyond
// it after the namer grew.
func TestTableRegrowsAfterResize(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Hour, SweepInterval: -1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	first, err := m.AcquireBatch(context.Background(), "w", 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	small := nm.Namespace()
	if slots, _ := tableStats(m, 0); slots != small {
		t.Fatalf("table sized at %d slots, want the namespace %d", slots, small)
	}
	if err := nm.Resize(256); err != nil {
		t.Fatal(err)
	}
	if slots, _ := tableStats(m, 0); slots != small {
		t.Fatalf("Resize alone moved the table to %d slots", slots)
	}
	beyond := false
	for i := 0; i < 200; i++ {
		l, err := acquire1(m, "w", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		beyond = beyond || l.Name >= small
	}
	if !beyond {
		t.Fatal("no grant landed beyond the old namespace; the test exercised nothing")
	}
	if slots, occupied := tableStats(m, 0); slots != nm.Namespace() || occupied != 208 {
		t.Fatalf("table has %d slots, %d occupied; want the grown namespace %d and 208", slots, occupied, nm.Namespace())
	}
	for _, l := range first {
		if _, err := renew1(m, l.Name, l.Token, 0); err != nil {
			t.Fatalf("lease %d lost across the re-allocation: %v", l.Name, err)
		}
	}
}

// TestMetricsLiveIdleTouchesNoSlot: while the clock has not reached a
// stripe's earliest deadline, Metrics().Live is the occupied count and
// reads no slot. Proved by poisoning: every slot's deadline is rewritten
// to the distant past behind the watermark's back, so a scrape that
// looked at even one slot would undercount.
func TestMetricsLiveIdleTouchesNoSlot(t *testing.T) {
	nm, err := renaming.NewLevelArray(1 << 18) // namespace just under 2^20
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Hour, SweepInterval: -1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const held = 1 << 10
	if _, err := m.AcquireBatch(context.Background(), "w", held, 0, nil); err != nil {
		t.Fatal(err)
	}
	sh := &m.shards[0]
	sh.mu.Lock()
	for i := range sh.slots {
		sh.slots[i].deadline = math.MinInt64
	}
	sh.mu.Unlock()
	if got := m.Metrics().Live; got != held {
		t.Fatalf("idle Metrics().Live = %d, want %d: the scrape read slots", got, held)
	}
	if n := m.SweepOnce(); n != 0 {
		t.Fatalf("idle SweepOnce reclaimed %d: the sweep read slots", n)
	}
}
