package persist

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/lease"
)

var _ lease.Observer = (*Store)(nil)

// at builds a deterministic expiry instant.
func at(sec int64) time.Time { return time.Unix(sec, 0) }

// tableStore is the test double that stands where lease.Manager stands
// in production: it folds every event it forwards to the store — the
// mirror the store itself used to keep — and is the lease.Table the store
// snapshots from. stripe plays the manager's stripe lock: events fold and
// journal under it, Walk reads under it and yields outside it.
type tableStore struct {
	*Store
	stripe    sync.Mutex
	table     refFold
	recovered lease.RestoreState
	// beforeWalk, if set, runs at the start of every Walk: transitions
	// that land between a compaction's rotation and its read of the table.
	beforeWalk func()
}

func (d *tableStore) observe(r record, forward func()) {
	d.stripe.Lock()
	defer d.stripe.Unlock()
	d.table.apply(r)
	forward()
}

func (d *tableStore) ObserveAcquire(l lease.Lease) {
	d.observe(recordFromLease(l), func() { d.Store.ObserveAcquire(l) })
}

func (d *tableStore) ObserveRenew(name int, token uint64, expiresAt time.Time) {
	d.observe(record{op: opRenew, name: name, token: token, expiresAt: expiresAt.UnixNano()},
		func() { d.Store.ObserveRenew(name, token, expiresAt) })
}

func (d *tableStore) ObserveRelease(name int, token uint64) {
	d.observe(record{op: opRelease, name: name, token: token}, func() { d.Store.ObserveRelease(name, token) })
}

func (d *tableStore) ObserveExpire(name int, token uint64) {
	d.observe(record{op: opExpire, name: name, token: token}, func() { d.Store.ObserveExpire(name, token) })
}

func (d *tableStore) Walk(yield func([]lease.Lease) error) error {
	if d.beforeWalk != nil {
		d.beforeWalk()
	}
	d.stripe.Lock()
	chunk := d.table.sorted()
	d.stripe.Unlock()
	return yield(chunk)
}

func (d *tableStore) Occupied() int {
	d.stripe.Lock()
	defer d.stripe.Unlock()
	return d.table.Occupied()
}

// State is what Open recovered, read before the double bound itself as
// the table (which drops the store's copy).
func (d *tableStore) State() lease.RestoreState { return d.recovered }

// openAlways opens a store under dir with per-record fsync and no
// background compaction, so tests control exactly what is on disk, and
// does what Manager.Restore would: seeds the double's table with the
// recovered leases and hands it to the store.
func openAlways(t testing.TB, dir string) *tableStore {
	t.Helper()
	s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	d := &tableStore{Store: s, table: newRefFold(), recovered: s.State()}
	for _, l := range d.recovered.Leases {
		d.table.leases[l.Name] = l
	}
	s.ObserveTable(d)
	return d
}

// writeSnapshotFile crafts dir's snapshot.db from leases and a watermark.
func writeSnapshotFile(t *testing.T, dir string, watermark uint64, leases ...lease.Lease) {
	t.Helper()
	tab := newRefFold()
	for _, l := range leases {
		tab.leases[l.Name] = l
	}
	if err := writeSnapshot(dir, &tab, func() uint64 { return watermark }); err != nil {
		t.Fatal(err)
	}
}

func wantLeases(t *testing.T, st lease.RestoreState, want map[int]uint64) {
	t.Helper()
	if len(st.Leases) != len(want) {
		t.Fatalf("recovered %d leases, want %d (%v)", len(st.Leases), len(want), st.Leases)
	}
	for _, l := range st.Leases {
		tok, ok := want[l.Name]
		if !ok {
			t.Fatalf("unexpected recovered lease on name %d", l.Name)
		}
		if l.Token != tok {
			t.Fatalf("name %d recovered with token %d, want %d", l.Name, l.Token, tok)
		}
	}
}

func TestJournalRoundTripAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 10, Owner: "w1", ExpiresAt: at(100),
		Meta: map[string]string{"zone": "a"}})
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 11, Owner: "w2", ExpiresAt: at(100)})
	s.ObserveAcquire(lease.Lease{Name: 3, Token: 12, Owner: "w3", ExpiresAt: at(100)})
	s.ObserveRenew(1, 10, at(200))
	s.ObserveRelease(2, 11)
	s.ObserveExpire(3, 12)
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	r := openAlways(t, dir)
	defer r.Close()
	st := r.State()
	wantLeases(t, st, map[int]uint64{1: 10})
	if st.Token != 12 {
		t.Fatalf("token watermark %d, want 12 (highest ever seen, not highest live)", st.Token)
	}
	l := st.Leases[0]
	if !l.ExpiresAt.Equal(at(200)) {
		t.Fatalf("renew not replayed: expiry %v, want %v", l.ExpiresAt, at(200))
	}
	if l.Owner != "w1" || l.Meta["zone"] != "a" {
		t.Fatalf("owner/meta lost in replay: %+v", l)
	}
	if got := r.Stats().ReplayedRecords; got != 6 {
		t.Fatalf("replayed %d records, want 6", got)
	}
}

// TestStaleVerdictsIgnoredOnReplay pins the token guard: records about an
// old token must not touch a lease minted after it, so replay tolerates
// duplicated or stale prefixes.
func TestStaleVerdictsIgnoredOnReplay(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 7, Token: 1, ExpiresAt: at(100)})
	s.ObserveRelease(7, 1)
	s.ObserveAcquire(lease.Lease{Name: 7, Token: 2, ExpiresAt: at(300)})
	// Stale verdicts about token 1 arriving late: must all be no-ops.
	s.ObserveRenew(7, 1, at(999))
	s.ObserveExpire(7, 1)
	s.ObserveRelease(7, 1)
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	st := r.State()
	wantLeases(t, st, map[int]uint64{7: 2})
	if !st.Leases[0].ExpiresAt.Equal(at(300)) {
		t.Fatalf("stale renew moved the new lease's expiry: %v", st.Leases[0].ExpiresAt)
	}
}

func TestCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	for i := 0; i < 32; i++ {
		s.ObserveAcquire(lease.Lease{Name: i, Token: uint64(i + 1), ExpiresAt: at(100)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	stats := r.Stats()
	if stats.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after graceful Close, want 0 (snapshot covers all)", stats.ReplayedRecords)
	}
	if stats.RecoveredLeases != 32 {
		t.Fatalf("recovered %d leases, want 32", stats.RecoveredLeases)
	}
	if tok := r.State().Token; tok != 32 {
		t.Fatalf("token watermark %d, want 32", tok)
	}
}

func TestCompactResetsJournalKeepsState(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 5, ExpiresAt: at(100)})
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 6, ExpiresAt: at(100)})
	s.ObserveRelease(2, 6)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().JournalRecords; got != 0 {
		t.Fatalf("journal holds %d records after Compact, want 0", got)
	}
	// Journal file really is reset to just the magic.
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(journalMagic)) {
		t.Fatalf("journal size %d after Compact, want %d", fi.Size(), len(journalMagic))
	}
	s.ObserveAcquire(lease.Lease{Name: 3, Token: 7, ExpiresAt: at(100)})
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	wantLeases(t, r.State(), map[int]uint64{1: 5, 3: 7})
	if tok := r.State().Token; tok != 7 {
		t.Fatalf("token watermark %d, want 7", tok)
	}
}

// TestTokenWatermarkSurvivesEmptyTable pins that the watermark is carried
// by the snapshot itself, not derived from live leases: a table that
// empties out must still never re-issue old tokens after restart.
func TestTokenWatermarkSurvivesEmptyTable(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 41, ExpiresAt: at(100)})
	s.ObserveRelease(1, 41)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	st := r.State()
	if len(st.Leases) != 0 || st.Token != 41 {
		t.Fatalf("got %d leases, watermark %d; want 0 leases, watermark 41", len(st.Leases), st.Token)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"always": FsyncAlways, "interval": FsyncInterval, "": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestBadSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot; stale leases could resurrect")
	}
}

func TestAppendAfterCloseGoesSticky(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	if s.Stats().Err == nil {
		t.Fatal("append after Close not surfaced through Stats.Err")
	}
}

func TestFsyncIntervalFlushesWithoutCrashLoss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncInterval, FsyncEvery: 5 * time.Millisecond, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 9, ExpiresAt: at(100)})
	// Wait for the background flusher to push the record out, then crash:
	// the record must survive even though Crash never flushes.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	wantLeases(t, r.State(), map[int]uint64{1: 9})
}

func TestStickyErrIsFirstError(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	s := &Store{}
	s.failLocked(e1)
	s.failLocked(e2)
	if s.err != e1 {
		t.Fatalf("sticky error %v, want the first failure", s.err)
	}
}

// TestStatsTelemetryFields covers the fields the telemetry exposition
// scrapes: JournalBytes must grow with every append (framed bytes, so
// strictly more than the payload) and RecoveryDuration must be set by
// Open.
func TestStatsTelemetryFields(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	if s.Stats().JournalBytes != 0 {
		t.Fatalf("fresh store reports %d journal bytes, want 0", s.Stats().JournalBytes)
	}
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	after1 := s.Stats().JournalBytes
	if after1 <= 0 {
		t.Fatalf("JournalBytes = %d after one append, want > 0", after1)
	}
	s.ObserveRenew(1, 1, at(200))
	if got := s.Stats().JournalBytes; got <= after1 {
		t.Fatalf("JournalBytes = %d after second append, want > %d", got, after1)
	}
	if d := s.Stats().RecoveryDuration; d <= 0 {
		t.Fatalf("RecoveryDuration = %v, want > 0", d)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	// JournalBytes counts work since Open, not recovered history.
	if got := r.Stats().JournalBytes; got != 0 {
		t.Fatalf("reopened store reports %d journal bytes, want 0", got)
	}
	if d := r.Stats().RecoveryDuration; d <= 0 {
		t.Fatalf("RecoveryDuration after replaying = %v, want > 0", d)
	}
}

// TestUnboundStoreOnlyJournals: until Restore hands a table over, the
// store has nothing to snapshot from. It journals; the background
// compactor skips its passes without poisoning Stats.Err; Compact says
// ErrNoTable; and Close leaves the files, which describe the table
// completely, as they are.
func TestUnboundStoreOnlyJournals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: time.Millisecond, CompactMinRecords: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.ObserveAcquire(lease.Lease{Name: i, Token: uint64(i + 1), ExpiresAt: at(100)})
	}
	time.Sleep(20 * time.Millisecond) // several compactor ticks, all due
	if err := s.Compact(); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Compact without a table = %v, want ErrNoTable", err)
	}
	if st := s.Stats(); st.Err != nil || st.Compactions != 0 {
		t.Fatalf("unbound store reports err %v, %d compactions; want a healthy store that never compacted", st.Err, st.Compactions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.SnapshotLeases != 0 || a.JournalRecords != 4 || len(a.Leases) != 4 {
		t.Fatalf("after Close: snapshot %d leases, journal %d records, %d recovered; want the journal left whole",
			a.SnapshotLeases, a.JournalRecords, len(a.Leases))
	}
}

// TestFailedFlushStaysDirty: under FsyncNever a flush that failed has
// flushed nothing, so the store must keep saying so.
func TestFailedFlushStaysDirty(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever, FsyncEvery: time.Millisecond, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Crash()
	s.mu.Lock()
	s.f.Close() // every flush from here on fails
	s.mu.Unlock()
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Err == nil {
		if time.Now().After(deadline) {
			t.Fatal("the flusher never reported the failed flush")
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		t.Fatal("a failed flush cleared dirty: the unwritten record is no longer owed a flush")
	}
}
