package lease

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// TestRenewBatchMixedResults drives one RenewBatch through every per-item
// outcome at once: a live lease renews, a stale token is ErrWrongToken,
// an expired lease is ErrExpired (and reclaimed on the spot), a never-
// leased name is ErrUnknownName — and crucially none of the failures
// poison the successes: the batch is per-item, not all-or-nothing.
func TestRenewBatchMixedResults(t *testing.T) {
	m, clk := newTestManager(t, 32)
	ctx := context.Background()

	good, err := acquire1(m, "s", 0, nil) // default 10s TTL
	if err != nil {
		t.Fatal(err)
	}
	stale, err := acquire1(m, "s", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dying, err := acquire1(m, "s", time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // dying lapses; good and stale live on

	const unknown = -1 // no namer ever grants a negative name

	items := []RenewItem{
		{Name: good.Name, Token: good.Token},
		{Name: stale.Name, Token: stale.Token + 99},
		{Name: dying.Name, Token: dying.Token},
		{Name: unknown, Token: 1},
	}
	before := m.Metrics()
	results, err := m.RenewBatch(ctx, items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results for %d items", len(results), len(items))
	}
	if results[0].Err != nil {
		t.Fatalf("live lease renew err = %v", results[0].Err)
	}
	if want := clk.Now().Add(10 * time.Second); !results[0].Lease.ExpiresAt.Equal(want) {
		t.Fatalf("renewed deadline = %v, want %v", results[0].Lease.ExpiresAt, want)
	}
	if !errors.Is(results[1].Err, ErrWrongToken) {
		t.Fatalf("stale-token item err = %v, want ErrWrongToken", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrExpired) {
		t.Fatalf("expired item err = %v, want ErrExpired", results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrUnknownName) {
		t.Fatalf("unknown item err = %v, want ErrUnknownName", results[3].Err)
	}

	after := m.Metrics()
	if after.Renewed != before.Renewed+1 {
		t.Fatalf("Renewed went %d -> %d, want +1", before.Renewed, after.Renewed)
	}
	if after.Rejected != before.Rejected+3 {
		t.Fatalf("Rejected went %d -> %d, want +3 (one per refused item)", before.Rejected, after.Rejected)
	}
	if after.Expired != before.Expired+1 {
		t.Fatalf("Expired went %d -> %d, want +1 (late renewal reclaims)", before.Expired, after.Expired)
	}
	// The expired lease was reclaimed by its own failed renewal.
	if _, ok := get1(m, dying.Name); ok {
		t.Fatal("expired lease still live after its batch renewal failed")
	}
	// The stale-token attack left the real holder untouched.
	if _, err := renew1(m, stale.Name, stale.Token, 0); err != nil {
		t.Fatalf("true holder renew after stale-token batch item: %v", err)
	}
}

// TestReleaseBatchMixedResults mirrors the renew test on the release
// path, including the released/expired accounting split.
func TestReleaseBatchMixedResults(t *testing.T) {
	m, clk := newTestManager(t, 32)
	ctx := context.Background()

	good, err := acquire1(m, "s", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := acquire1(m, "s", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dying, err := acquire1(m, "s", time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)

	items := []ReleaseItem{
		{Name: good.Name, Token: good.Token},
		{Name: stale.Name, Token: stale.Token + 99},
		{Name: dying.Name, Token: dying.Token},
	}
	results, err := m.ReleaseBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("live release err = %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrWrongToken) {
		t.Fatalf("stale-token release err = %v, want ErrWrongToken", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrExpired) {
		t.Fatalf("expired release err = %v, want ErrExpired", results[2].Err)
	}
	if mt := m.Metrics(); mt.Released != 1 || mt.Expired != 1 || mt.Live != 1 {
		t.Fatalf("metrics = %+v, want Released 1, Expired 1, Live 1 (the stale-token survivor)", mt)
	}
	// Both the released and the reclaimed names are back in the pool: with
	// the true holder's lease still live, the rest of the capacity fits.
	if _, err := m.AcquireBatch(ctx, "s", 31, 0, nil); err != nil {
		t.Fatalf("refill after batch release: %v", err)
	}
}

// TestRenewBatchIntoReusesDst: the caller-owned form writes into dst when
// it holds the batch, leaves nothing of dst's old contents behind (a
// refusal carries no stale lease, a success no stale error), agrees with
// RenewBatch item for item, and falls back to a fresh slice when dst is
// too small; a call-level refusal hands back dst[:0].
func TestRenewBatchIntoReusesDst(t *testing.T) {
	m, _ := newTestManager(t, 32)
	ctx := context.Background()
	held, err := m.AcquireBatch(ctx, "s", 3, 0, map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	items := []RenewItem{
		{Name: held[0].Name, Token: held[0].Token},
		{Name: -1, Token: 1},
		{Name: held[1].Name, Token: held[1].Token + 99},
		{Name: held[2].Name, Token: held[2].Token},
	}
	want, err := m.RenewBatch(ctx, items, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := RenewResult{Lease: Lease{Name: 77, Token: 77, Owner: "junk"}, Err: ErrExpired}
	dst := make([]RenewResult, len(items)+2)
	for i := range dst {
		dst[i] = junk
	}
	got, err := m.RenewBatchInto(ctx, items, 0, dst[:0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) || &got[0] != &dst[0] {
		t.Fatalf("RenewBatchInto returned %d results at %p, want %d in dst at %p", len(got), &got[0], len(items), &dst[0])
	}
	for i := range items {
		g, w := got[i], want[i]
		if !errors.Is(g.Err, w.Err) || (w.Err == nil) != (g.Err == nil) ||
			g.Lease.Name != w.Lease.Name || g.Lease.Token != w.Lease.Token ||
			g.Lease.Owner != w.Lease.Owner || g.Lease.Meta["k"] != w.Lease.Meta["k"] {
			t.Errorf("item %d: RenewBatchInto %+v, RenewBatch %+v", i, g, w)
		}
	}
	isJunk := func(r RenewResult) bool { return r.Err == junk.Err && r.Lease.Owner == junk.Lease.Owner }
	if !isJunk(dst[len(items)]) {
		t.Errorf("RenewBatchInto wrote past len(items): %+v", dst[len(items)])
	}

	small := []RenewResult{junk}
	got, err = m.RenewBatchInto(ctx, items, 0, small)
	if err != nil || len(got) != len(items) || &got[0] == &small[0] || !isJunk(small[0]) {
		t.Fatalf("RenewBatchInto into a too-small dst = %d results (aliasing %v), %v; dst now %+v",
			len(got), &got[0] == &small[0], err, small[0])
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if got, err := m.RenewBatchInto(cancelled, items, 0, dst); !errors.Is(err, renaming.ErrCancelled) || len(got) != 0 {
		t.Fatalf("cancelled RenewBatchInto = %d results, %v; want none and ErrCancelled", len(got), err)
	}
}

// TestRenewBatchDuplicateItems: renewing the same lease twice in one
// batch is two renewals of one lease, both succeeding (the second extends
// from the same now), never a corruption.
func TestRenewBatchDuplicateItems(t *testing.T) {
	m, _ := newTestManager(t, 8)
	l, err := acquire1(m, "s", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := RenewItem{Name: l.Name, Token: l.Token}
	results, err := m.RenewBatch(context.Background(), []RenewItem{it, it}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("duplicate item %d err = %v", i, r.Err)
		}
	}
	// A released lease's second batch occurrence, by contrast, is a
	// genuine per-item failure.
	rel := ReleaseItem{Name: l.Name, Token: l.Token}
	rres, err := m.ReleaseBatch(context.Background(), []ReleaseItem{rel, rel})
	if err != nil {
		t.Fatal(err)
	}
	if rres[0].Err != nil {
		t.Fatalf("first release err = %v", rres[0].Err)
	}
	if !errors.Is(rres[1].Err, ErrUnknownName) {
		t.Fatalf("double release in one batch err = %v, want ErrUnknownName", rres[1].Err)
	}
}

// TestRenewBatchCancelled: a context already done is a call-level
// rejection; one cancelled mid-walk (not reproducible deterministically
// without hooks, so exercised at entry only) must wrap
// renaming.ErrCancelled.
func TestRenewBatchCancelled(t *testing.T) {
	m, _ := newTestManager(t, 8)
	l, err := acquire1(m, "s", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RenewBatch(ctx, []RenewItem{{Name: l.Name, Token: l.Token}}, 0); !errors.Is(err, renaming.ErrCancelled) {
		t.Fatalf("cancelled RenewBatch err = %v, want ErrCancelled", err)
	}
	if _, err := m.ReleaseBatch(ctx, []ReleaseItem{{Name: l.Name, Token: l.Token}}); !errors.Is(err, renaming.ErrCancelled) {
		t.Fatalf("cancelled ReleaseBatch err = %v, want ErrCancelled", err)
	}
	// Nothing was touched: the lease still renews with its token.
	if _, err := renew1(m, l.Name, l.Token, 0); err != nil {
		t.Fatalf("renew after cancelled batches: %v", err)
	}
}

// TestRenewBatchEmpty: a zero-item batch is a no-op, not an error.
func TestRenewBatchEmpty(t *testing.T) {
	m, _ := newTestManager(t, 8)
	if res, err := m.RenewBatch(context.Background(), nil, 0); err != nil || res != nil {
		t.Fatalf("empty RenewBatch = %v, %v, want nil, nil", res, err)
	}
	if res, err := m.ReleaseBatch(context.Background(), nil); err != nil || res != nil {
		t.Fatalf("empty ReleaseBatch = %v, %v, want nil, nil", res, err)
	}
}

// TestRenewBatchConcurrentHeartbeat races heartbeating sessions (each
// renewing its own standing set via RenewBatch) against an aggressive
// sweeper and churning acquire/release traffic, under -race. No session
// may ever lose a lease it heartbeats on time.
func TestRenewBatchConcurrentHeartbeat(t *testing.T) {
	const (
		sessions  = 4
		perSess   = 16
		rounds    = 150
		churners  = 2
		churnIter = 200
	)
	nm, err := renaming.NewLevelArray(256)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			leases, err := m.AcquireBatch(context.Background(), "sess", perSess, 0, nil)
			if err != nil {
				t.Errorf("session %d acquire: %v", id, err)
				return
			}
			items := make([]RenewItem, len(leases))
			for i, l := range leases {
				items[i] = RenewItem{Name: l.Name, Token: l.Token}
			}
			for r := 0; r < rounds; r++ {
				results, err := m.RenewBatch(context.Background(), items, 0)
				if err != nil {
					t.Errorf("session %d round %d: %v", id, r, err)
					return
				}
				for i, res := range results {
					if res.Err != nil {
						t.Errorf("session %d lost lease %d mid-heartbeat: %v", id, items[i].Name, res.Err)
						return
					}
				}
			}
			rel := make([]ReleaseItem, len(items))
			for i, it := range items {
				rel[i] = ReleaseItem{Name: it.Name, Token: it.Token}
			}
			results, err := m.ReleaseBatch(context.Background(), rel)
			if err != nil {
				t.Errorf("session %d release: %v", id, err)
				return
			}
			for i, res := range results {
				if res.Err != nil {
					t.Errorf("session %d release item %d: %v", id, i, res.Err)
				}
			}
		}(s)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < churnIter; i++ {
				l, err := acquire1(m, "churn", time.Millisecond, nil)
				if err != nil {
					t.Errorf("churn acquire: %v", err)
					return
				}
				_ = l // abandoned: the sweeper reclaims it
			}
		}()
	}
	wg.Wait()

	// Drain the abandoned churn leases, then nothing may be left.
	deadline := time.Now().Add(5 * time.Second)
	for m.live.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("live count stuck at %d after drain", m.live.Load())
		}
		m.SweepOnce()
		time.Sleep(time.Millisecond)
	}
}
