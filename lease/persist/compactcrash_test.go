package persist

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/lease"
)

// snapshotImage crafts the bytes of a snapshot file: one frame per lease
// and, unless end is nil, an end frame claiming {watermark, count}.
func snapshotImage(leases []lease.Lease, end *[2]uint64) []byte {
	buf := []byte(snapshotMagic)
	for _, l := range leases {
		buf = appendRecord(buf, recordFromLease(l))
	}
	if end != nil {
		start := len(buf)
		buf = append(beginFrame(buf), byte(opSnapshotEnd))
		buf = binary.AppendUvarint(buf, end[0])
		buf = endFrame(binary.AppendUvarint(buf, end[1]), start)
	}
	return buf
}

// writeJournalFile crafts a raw journal of records at path.
func writeJournalFile(t *testing.T, path string, recs []record) {
	t.Helper()
	buf := []byte(journalMagic)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStaleJournalOverNewerSnapshot is the regression test for the
// compaction crash-window inversion: a crash between the snapshot
// rename and the journal reset used to leave a NEWER snapshot with an
// OLDER journal, and replaying acquire(X,t5)+release(X,t5) over a
// snapshot holding X:t9 deleted the durably snapshotted lease. The
// token guard in fold.settle (an acquire never downgrades a name to an
// older holder) plus the rotation protocol must keep X:t9 alive.
func TestStaleJournalOverNewerSnapshot(t *testing.T) {
	dir := t.TempDir()
	// The newer snapshot: X (name 7) held with token 9.
	writeSnapshotFile(t, dir, 9, lease.Lease{Name: 7, Token: 9, Owner: "new", ExpiresAt: at(300)})
	// The older journal: X's previous incarnation, acquired and released
	// with token 5 — records the snapshot already covers.
	writeJournalFile(t, filepath.Join(dir, journalName), []record{
		{op: opAcquire, name: 7, token: 5, expiresAt: at(100).UnixNano(), owner: "old"},
		{op: opRelease, name: 7, token: 5},
	})
	s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.State()
	wantLeases(t, st, map[int]uint64{7: 9})
	if st.Leases[0].Owner != "new" {
		t.Fatalf("stale acquire overwrote the snapshotted lease: owner %q", st.Leases[0].Owner)
	}
	if st.Token != 9 {
		t.Fatalf("token watermark %d, want 9", st.Token)
	}
}

// TestPrevJournalReplayedBeforeActive pins recovery from a crash inside
// the rotation window: prev (older records) must fold in before the
// active journal, and the union must survive.
func TestPrevJournalReplayedBeforeActive(t *testing.T) {
	dir := t.TempDir()
	writeSnapshotFile(t, dir, 1, lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	// prev: records rotated aside by the crashed compaction — B acquired,
	// then re-acquired (release lost? no: released and re-acquired).
	writeJournalFile(t, filepath.Join(dir, journalPrevName), []record{
		{op: opAcquire, name: 2, token: 2, expiresAt: at(100).UnixNano()},
		{op: opRelease, name: 2, token: 2},
		{op: opAcquire, name: 2, token: 3, expiresAt: at(200).UnixNano()},
	})
	// active: the fresh journal started after rotation.
	writeJournalFile(t, filepath.Join(dir, journalName), []record{
		{op: opAcquire, name: 4, token: 4, expiresAt: at(100).UnixNano()},
		{op: opRenew, name: 2, token: 3, expiresAt: at(400).UnixNano()},
	})
	s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.State()
	wantLeases(t, st, map[int]uint64{1: 1, 2: 3, 4: 4})
	for _, l := range st.Leases {
		if l.Name == 2 && !l.ExpiresAt.Equal(at(400)) {
			t.Fatalf("active-journal renew not applied over prev acquire: expiry %v", l.ExpiresAt)
		}
	}
	if got := s.Stats().ReplayedRecords; got != 5 {
		t.Fatalf("replayed %d records, want 5 (3 prev + 2 active)", got)
	}
	// Boot compaction must have retired the prev file and restarted the
	// journal, and the state must survive another crash cycle.
	if _, err := os.Stat(filepath.Join(dir, journalPrevName)); !os.IsNotExist(err) {
		t.Fatalf("prev journal not retired by boot compaction: %v", err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	wantLeases(t, r.State(), map[int]uint64{1: 1, 2: 3, 4: 4})
	if got := r.Stats().ReplayedRecords; got != 0 {
		t.Fatalf("second boot replayed %d records, want 0 (boot compaction snapshotted)", got)
	}
}

// TestCompactionHealsBrokenJournalWriter pins the self-healing promise
// in Stats.Err's docs: after a journal write failure (bufio errors are
// sticky — every later flush of that writer fails too), the next
// compaction must still write a snapshot from the table and hand the
// store a working journal, not wedge forever on the poisoned writer.
func TestCompactionHealsBrokenJournalWriter(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	// Break the journal fd out from under the store: the next flush (and
	// every one after, per bufio's sticky error) fails.
	s.mu.Lock()
	s.f.Close()
	s.mu.Unlock()
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 2, ExpiresAt: at(100)})
	if s.Stats().Err == nil {
		t.Fatal("journal failure not surfaced through Stats.Err")
	}
	// Compaction heals: snapshot from the table (which has both
	// leases), fresh journal with a reset writer.
	if err := s.Compact(); err != nil {
		t.Fatalf("compaction wedged on the broken writer: %v", err)
	}
	// The fresh journal accepts and persists new records again.
	s.ObserveAcquire(lease.Lease{Name: 3, Token: 3, ExpiresAt: at(100)})
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	wantLeases(t, r.State(), map[int]uint64{1: 1, 2: 2, 3: 3})
}

// TestCompactRotatesAndRetiresPrev pins the runtime protocol end to
// end: Compact leaves a fresh journal, no prev, and a snapshot that
// fully covers the state — all while appends keep landing.
func TestCompactRotatesAndRetiresPrev(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	for i := 0; i < 16; i++ {
		s.ObserveAcquire(lease.Lease{Name: i, Token: uint64(i + 1), ExpiresAt: at(100)})
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalPrevName)); !os.IsNotExist(err) {
		t.Fatalf("prev journal left behind after Compact: %v", err)
	}
	// Post-compact appends land in the fresh journal and survive a crash.
	s.ObserveAcquire(lease.Lease{Name: 20, Token: 21, ExpiresAt: at(100)})
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openAlways(t, dir)
	defer r.Close()
	if got := len(r.State().Leases); got != 17 {
		t.Fatalf("recovered %d leases, want 17", got)
	}
	if got := r.Stats().ReplayedRecords; got != 1 {
		t.Fatalf("replayed %d records, want 1 (only the post-compact acquire)", got)
	}
}

// TestCompactionCutAtEachPoint kills a runtime compaction at every point
// of its protocol, by building the directory each would leave, and
// requires the one recovery all of them must converge on. The history:
// an old snapshot and a journal, rotated aside; a fresh journal that kept
// moving while the table was walked, so the new snapshot is fuzzy — it
// still holds name 2's previous lease and name 4's, released since, has
// seen name 1's renewal and has not seen name 5 at all.
func TestCompactionCutAtEachPoint(t *testing.T) {
	oldSnapshot := snapshotImage([]lease.Lease{{Name: 8, Token: 1, ExpiresAt: at(100)}}, &[2]uint64{1, 1})
	rotated := []record{
		{op: opAcquire, name: 1, token: 2, expiresAt: at(100).UnixNano(), owner: "a"},
		{op: opAcquire, name: 2, token: 3, expiresAt: at(100).UnixNano(), owner: "b"},
		{op: opAcquire, name: 3, token: 4, expiresAt: at(100).UnixNano()},
		{op: opRelease, name: 3, token: 4},
		{op: opExpire, name: 8, token: 1},
	}
	active := []record{
		{op: opRenew, name: 1, token: 2, expiresAt: at(200).UnixNano()},
		{op: opAcquire, name: 4, token: 5, expiresAt: at(100).UnixNano()},
		// — the walk read names 1, 2 and 4 about here —
		{op: opRelease, name: 2, token: 3},
		{op: opAcquire, name: 2, token: 6, expiresAt: at(300).UnixNano(), owner: "c"},
		// — the seal: everything above is durable before the rename —
		{op: opAcquire, name: 5, token: 7, expiresAt: at(100).UnixNano()},
		{op: opRelease, name: 4, token: 5},
	}
	fuzzy := []lease.Lease{
		{Name: 1, Token: 2, Owner: "a", ExpiresAt: at(200)},
		{Name: 2, Token: 3, Owner: "b", ExpiresAt: at(100)},
		{Name: 4, Token: 5, ExpiresAt: at(100)},
	}
	newSnapshot := snapshotImage(fuzzy, &[2]uint64{6, 3})

	for _, cut := range []struct {
		name          string
		snapshot, tmp []byte
		prev          bool
		replayed      int
	}{
		{name: "after rotate", snapshot: oldSnapshot, prev: true, replayed: 11},
		{name: "after the walk, before the seal", snapshot: oldSnapshot, tmp: snapshotImage(fuzzy, nil), prev: true, replayed: 11},
		{name: "after rename, before prev is removed", snapshot: newSnapshot, prev: true, replayed: 11},
		{name: "complete", snapshot: newSnapshot, replayed: 6},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name string, b []byte) {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write(snapshotName, cut.snapshot)
			if cut.tmp != nil {
				write(snapshotName+".tmp", cut.tmp)
			}
			if cut.prev {
				writeJournalFile(t, filepath.Join(dir, journalPrevName), rotated)
			}
			writeJournalFile(t, filepath.Join(dir, journalName), active)

			a, err := ReadAudit(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Regressions) != 0 {
				t.Fatalf("audit of a healthy cut reported %v", a.Regressions)
			}
			s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Crash()
			st := s.State()
			wantLeases(t, st, map[int]uint64{1: 2, 2: 6, 5: 7})
			if st.Token != 7 || a.MaxToken != 7 {
				t.Fatalf("watermark %d (audit %d), want 7", st.Token, a.MaxToken)
			}
			if l := st.Leases[0]; !l.ExpiresAt.Equal(at(200)) || l.Owner != "a" {
				t.Fatalf("name 1 recovered as %+v, want owner a renewed to %v", l, at(200))
			}
			if l := st.Leases[1]; !l.ExpiresAt.Equal(at(300)) || l.Owner != "c" {
				t.Fatalf("name 2 recovered as %+v, want the re-acquisition by c", l)
			}
			if got := s.Stats().ReplayedRecords; got != cut.replayed {
				t.Fatalf("replayed %d records, want %d", got, cut.replayed)
			}
			if len(a.Leases) != len(st.Leases) {
				t.Fatalf("audit folded %d leases, recovery %d", len(a.Leases), len(st.Leases))
			}
		})
	}
}

// TestSealMakesTheWalkedStateDurable pins the seal. Under a lazy fsync
// policy, records that land after the rotation sit in the store's buffer;
// a snapshot that reflects them must not reach its name before they reach
// the disk, or a crash leaves a snapshot holding a token the surviving
// journal never mints — which the audit rightly calls a regression.
func TestSealMakesTheWalkedStateDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, FsyncEvery: time.Hour, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	d := &tableStore{Store: st, table: newRefFold()}
	st.ObserveTable(d)
	d.ObserveAcquire(lease.Lease{Name: 7, Token: 1, ExpiresAt: at(100)})
	d.beforeWalk = func() {
		d.ObserveRelease(7, 1)
		d.ObserveAcquire(lease.Lease{Name: 7, Token: 2, ExpiresAt: at(200)})
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil { // whatever is still buffered is lost
		t.Fatal(err)
	}
	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.SnapshotLeases != 1 || a.JournalRecords != 2 || len(a.Regressions) != 0 {
		t.Fatalf("snapshot holds %d leases over %d durable journal records, regressions %v; want 1 over 2 and none",
			a.SnapshotLeases, a.JournalRecords, a.Regressions)
	}
	if len(a.Leases) != 1 || a.Leases[0].Token != 2 || a.MaxToken != 2 {
		t.Fatalf("recovered %+v under watermark %d, want name 7 at token 2", a.Leases, a.MaxToken)
	}
}
