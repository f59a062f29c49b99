package persist

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	renaming "repro"
	"repro/lease"
)

// fakeClock mirrors the lease package's test clock: manual time so
// expiry across "restarts" is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

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

// bootManager builds a journaled manager over a fresh LevelArray namer,
// restores the store's recovered state into it, and returns both.
func bootManager(t *testing.T, dir string, clk *fakeClock) (*lease.Manager, *Store, int, int) {
	t.Helper()
	st, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	nm, err := renaming.NewLevelArray(64)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{
		TTL:           10 * time.Second,
		SweepInterval: -1,
		Observer:      st,
		Now:           clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	restored, expired, err := mgr.Restore(st.State())
	if err != nil {
		t.Fatal(err)
	}
	return mgr, st, restored, expired
}

// TestRestartRoundTrip is the crash-recovery acceptance test at the
// library level: acquire and renew under journaling, crash without any
// snapshot, reboot from the same directory, and assert that every
// unexpired lease came back with its token, that the restored tokens
// keep renewing, and that fencing tokens stay monotonic across the
// restart.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()

	mgr1, _, restored, expired := bootManager(t, dir, clk)
	if restored != 0 || expired != 0 {
		t.Fatalf("fresh boot restored %d / expired %d, want 0/0", restored, expired)
	}
	short, err := acquire1(mgr1, "doomed", 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	var held []lease.Lease
	var maxToken uint64
	for i := 0; i < 8; i++ {
		l, err := acquire1(mgr1, "survivor", 0, map[string]string{"i": "x"})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
		if l.Token > maxToken {
			maxToken = l.Token
		}
	}
	// Renew one lease so its replayed expiry is the extended one.
	clk.Advance(1 * time.Second)
	renewed, err := renew1(mgr1, held[0].Name, held[0].Token, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no Shutdown, no store snapshot — the journal alone carries
	// the state. (mgr1 is simply abandoned, like a killed process.)

	clk.Advance(3 * time.Second) // "downtime": past short's TTL, within the others'

	mgr2, st2, restored2, expired2 := bootManager(t, dir, clk)
	defer mgr2.Shutdown()
	defer st2.Close()
	if restored2 != len(held) || expired2 != 1 {
		t.Fatalf("reboot restored %d / expired %d, want %d / 1", restored2, expired2, len(held))
	}
	if _, ok := get1(mgr2, short.Name); ok {
		t.Fatal("lease that lapsed during downtime came back alive")
	}
	for _, l := range held {
		got, ok := get1(mgr2, l.Name)
		if !ok {
			t.Fatalf("lease on name %d not restored", l.Name)
		}
		if got.Token != l.Token {
			t.Fatalf("name %d restored with token %d, want %d", l.Name, got.Token, l.Token)
		}
		if got.Owner != "survivor" || got.Meta["i"] != "x" {
			t.Fatalf("name %d lost owner/meta: %+v", l.Name, got)
		}
	}
	if got, _ := get1(mgr2, held[0].Name); !got.ExpiresAt.Equal(renewed.ExpiresAt) {
		t.Fatalf("renewed expiry not replayed: %v, want %v", got.ExpiresAt, renewed.ExpiresAt)
	}

	// Restored tokens keep renewing — the heartbeat of a client that
	// never noticed the crash.
	for _, l := range held {
		if _, err := renew1(mgr2, l.Name, l.Token, 0); err != nil {
			t.Fatalf("restored token for name %d refused renewal: %v", l.Name, err)
		}
	}

	// Token monotonicity: everything minted post-restart outranks
	// everything minted pre-crash (including the expired lease's token).
	fresh, err := acquire1(mgr2, "post-crash", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if short.Token > maxToken {
		maxToken = short.Token
	}
	if fresh.Token <= maxToken {
		t.Fatalf("post-restart token %d not above pre-crash watermark %d", fresh.Token, maxToken)
	}

	// The adopted names are really held in the fresh namer: a released
	// restored name is re-acquirable, and no fresh acquire collided with
	// a restored one (get1 above proved each restored name had its lease).
	if err := release1(mgr2, held[1].Name, held[1].Token); err != nil {
		t.Fatal(err)
	}
}

// TestRestartAfterGracefulShutdown: a graceful shutdown preserves the
// table for the next boot.
func TestRestartAfterGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	mgr1, st1, _, _ := bootManager(t, dir, clk)
	l, err := acquire1(mgr1, "w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	mgr2, st2, restored, _ := bootManager(t, dir, clk)
	defer mgr2.Shutdown()
	defer st2.Close()
	if restored != 1 {
		t.Fatalf("restored %d leases after graceful shutdown, want 1", restored)
	}
	if _, err := renew1(mgr2, l.Name, l.Token, 0); err != nil {
		t.Fatalf("restored token refused renewal: %v", err)
	}
	// And the recovery replayed zero journal records: the shutdown
	// snapshot covered everything.
	if got := st2.Stats().ReplayedRecords; got != 0 {
		t.Fatalf("replayed %d records after graceful shutdown, want 0", got)
	}
}

// pausingStore is a Store whose first ObserveAcquire signals paused and
// waits for resume: with the batch's first stripe journaled and locked,
// Shutdown can start while the batch is between its stripes.
type pausingStore struct {
	*Store
	once           sync.Once
	paused, resume chan struct{}
}

func (p *pausingStore) ObserveAcquire(l lease.Lease) {
	p.Store.ObserveAcquire(l)
	p.once.Do(func() {
		close(p.paused)
		<-p.resume
	})
}

// TestAcquireBatchShutdownRaceSurvivesReboot: a multi-stripe batch caught
// mid-walk by Shutdown completes, Shutdown waits for its journal records,
// and after store.Close and a reboot all k leases come back with the
// tokens the caller was handed.
func TestAcquireBatchShutdownRaceSurvivesReboot(t *testing.T) {
	const k = 6
	dir := t.TempDir()
	clk := newFakeClock()
	st, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// linearscan hands out 0..k-1, which two stripes split even/odd.
	nm, err := renaming.NewLinearScan(16)
	if err != nil {
		t.Fatal(err)
	}
	obs := &pausingStore{Store: st, paused: make(chan struct{}), resume: make(chan struct{})}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, Shards: 2, Observer: obs, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Restore(st.State()); err != nil {
		t.Fatal(err)
	}
	type result struct {
		leases []lease.Lease
		err    error
	}
	batch := make(chan result, 1)
	go func() {
		ls, err := mgr.AcquireBatch(context.Background(), "race", k, 0, nil)
		batch <- result{ls, err}
	}()
	<-obs.paused
	shutdownDone := make(chan struct{})
	go func() {
		mgr.Shutdown()
		close(shutdownDone)
	}()
	// An empty renewal is refused at entry once Shutdown has flipped.
	for {
		if _, err := mgr.RenewBatch(context.Background(), nil, 0); errors.Is(err, lease.ErrClosed) {
			break
		}
		runtime.Gosched()
	}
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a batch still between its stripes")
	default:
	}
	close(obs.resume)
	r := <-batch
	if r.err != nil || len(r.leases) != k {
		t.Fatalf("AcquireBatch caught by Shutdown = %d leases, %v; want all %d", len(r.leases), r.err, k)
	}
	<-shutdownDone
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, st2, restored, expired := bootManager(t, dir, clk)
	defer mgr2.Shutdown()
	defer st2.Close()
	if restored != k || expired != 0 {
		t.Fatalf("reboot restored %d / expired %d, want %d / 0", restored, expired, k)
	}
	for _, l := range r.leases {
		if got, ok := get1(mgr2, l.Name); !ok || got.Token != l.Token {
			t.Fatalf("name %d rebooted as %+v, %v; want token %d", l.Name, got, ok, l.Token)
		}
	}
}

// TestRestoreRejectsUsedManager pins that Restore demands a fresh
// manager: grants before Restore would violate the token watermark.
func TestRestoreRejectsUsedManager(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	mgr, st, _, _ := bootManager(t, dir, clk)
	defer mgr.Shutdown()
	defer st.Close()
	if _, err := acquire1(mgr, "w", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Restore(st.State()); err == nil {
		t.Fatal("Restore accepted a manager that already granted leases")
	}
}

// TestRestoreRequiresAdopter pins the failure mode for namers that
// cannot re-seize names.
func TestRestoreRequiresAdopter(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	_, _, rerr := mgr.Restore(lease.RestoreState{Leases: []lease.Lease{{Name: 1, Token: 1, ExpiresAt: time.Now().Add(time.Hour)}}})
	if rerr != nil {
		t.Fatalf("LevelArray namer should adopt: %v", rerr)
	}
	// A namer without Adopt must be refused when leases need restoring.
	var bare bareNamer
	mgr2, err := lease.New(&bare, lease.Config{SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Shutdown()
	_, _, rerr = mgr2.Restore(lease.RestoreState{Leases: []lease.Lease{{Name: 1, Token: 1, ExpiresAt: time.Now().Add(time.Hour)}}})
	if rerr == nil {
		t.Fatal("Restore accepted a namer with no Adopt method")
	}
}

// bareNamer is a Namer without Adopt.
type bareNamer struct{}

func (bareNamer) Acquire(ctx context.Context) (int, error)           { return 0, errors.New("no") }
func (bareNamer) AcquireN(ctx context.Context, k int) ([]int, error) { return nil, errors.New("no") }
func (bareNamer) Namespace() int                                     { return 8 }
func (bareNamer) Release(name int) error                             { return nil }
