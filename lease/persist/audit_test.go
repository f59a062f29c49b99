package persist

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"repro/lease"
)

// dirDigest hashes every file in dir (name + contents) so tests can
// assert the audit touched nothing.
func dirDigest(t *testing.T, dir string) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name()))
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func TestAuditMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 10, Owner: "w1", ExpiresAt: at(100)})
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 11, Owner: "w2", ExpiresAt: at(100)})
	s.ObserveAcquire(lease.Lease{Name: 3, Token: 12, Owner: "w3", ExpiresAt: at(100)})
	s.ObserveRenew(1, 10, at(200))
	s.ObserveRelease(2, 11)
	s.ObserveExpire(3, 12)
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	before := dirDigest(t, dir)
	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after := dirDigest(t, dir); after != before {
		t.Fatal("ReadAudit modified the data directory")
	}

	if len(a.Regressions) != 0 {
		t.Fatalf("healthy history reported regressions: %v", a.Regressions)
	}
	if a.TornBytes != 0 {
		t.Fatalf("fsync-always journal reported %d torn bytes", a.TornBytes)
	}
	if a.JournalRecords != 6 {
		t.Fatalf("audit counted %d journal records, want 6", a.JournalRecords)
	}
	if a.MaxToken != 12 {
		t.Fatalf("audit watermark %d, want 12 (highest ever seen)", a.MaxToken)
	}
	if len(a.Leases) != 1 || a.Leases[0].Name != 1 || a.Leases[0].Token != 10 {
		t.Fatalf("audit live set = %+v, want exactly {name 1, token 10}", a.Leases)
	}
	if !a.Leases[0].ExpiresAt.Equal(at(200)) {
		t.Fatalf("audit missed the renew: expiry %v, want %v", a.Leases[0].ExpiresAt, at(200))
	}

	// The audit's view must equal what a real recovery restores.
	r := openAlways(t, dir)
	defer r.Close()
	st := r.State()
	if len(st.Leases) != len(a.Leases) || st.Token != a.MaxToken {
		t.Fatalf("audit (%d leases, token %d) disagrees with recovery (%d leases, token %d)",
			len(a.Leases), a.MaxToken, len(st.Leases), st.Token)
	}
}

func TestAuditAfterGracefulCloseSeesSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	for i := 0; i < 8; i++ {
		s.ObserveAcquire(lease.Lease{Name: i, Token: uint64(i + 1), ExpiresAt: at(100)})
	}
	s.ObserveRelease(3, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.SnapshotLeases != 7 {
		t.Fatalf("snapshot carried %d leases, want 7", a.SnapshotLeases)
	}
	if a.JournalRecords != 0 || a.PrevRecords != 0 {
		t.Fatalf("graceful close left journal records behind: journal=%d prev=%d",
			a.JournalRecords, a.PrevRecords)
	}
	if a.TornBytes != 0 {
		t.Fatalf("graceful close left %d torn bytes", a.TornBytes)
	}
	if a.MaxToken != 8 {
		t.Fatalf("watermark %d, want 8", a.MaxToken)
	}
	if len(a.Leases) != 7 {
		t.Fatalf("live set %d leases, want 7", len(a.Leases))
	}
}

func TestAuditReportsTornTailWithoutTruncating(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 2, ExpiresAt: at(100)})
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	// Tear the journal mid-frame: append garbage that scans as an invalid
	// tail.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.TornBytes != int64(len(torn)) {
		t.Fatalf("audit reported %d torn bytes, want %d", a.TornBytes, len(torn))
	}
	if a.JournalRecords != 2 || len(a.Leases) != 2 {
		t.Fatalf("valid prefix misread: %d records, %d leases", a.JournalRecords, len(a.Leases))
	}
	sizeAfter, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter.Size() != sizeBefore.Size() {
		t.Fatalf("audit truncated the journal: %d -> %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}
}

func TestAuditFlagsTokenRegression(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 5, Token: 9, ExpiresAt: at(100)})
	s.ObserveRelease(5, 9)
	// A fencing bug: the name re-acquired with a token that moved BACKWARD.
	// The fold tolerates it (release emptied the entry), so only the
	// audit's order check can see it.
	s.ObserveAcquire(lease.Lease{Name: 5, Token: 3, ExpiresAt: at(200)})
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regressions) != 1 {
		t.Fatalf("want exactly 1 regression, got %v", a.Regressions)
	}
	r := a.Regressions[0]
	if r.Name != 5 || r.PrevToken != 9 || r.Token != 3 {
		t.Fatalf("regression misattributed: %+v", r)
	}
	if r.Source != journalName {
		t.Fatalf("regression source %q, want %q", r.Source, journalName)
	}
}

func TestAuditSpansSnapshotAndBothJournals(t *testing.T) {
	dir := t.TempDir()
	s := openAlways(t, dir)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, ExpiresAt: at(100)})
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 2, ExpiresAt: at(100)})
	// Snapshot covering both leases while the journal keeps its records —
	// the compaction a leftover prev (here an empty one) steers away from
	// rotating.
	writeJournalFile(t, filepath.Join(dir, journalPrevName), nil)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	// Rotate by hand into the mid-compaction crash window: the surviving
	// journal becomes journal.wal.prev and a fresh active journal carries
	// one newer record — the exact three-layer layout the audit must read
	// through in replay order.
	if err := os.Rename(filepath.Join(dir, journalName), filepath.Join(dir, journalPrevName)); err != nil {
		t.Fatal(err)
	}
	writeJournalFile(t, filepath.Join(dir, journalName), []record{
		recordFromLease(lease.Lease{Name: 3, Token: 3, ExpiresAt: at(100)}),
	})

	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.SnapshotLeases != 2 {
		t.Fatalf("snapshot leases %d, want 2", a.SnapshotLeases)
	}
	if a.PrevRecords != 2 {
		t.Fatalf("prev journal records %d, want 2", a.PrevRecords)
	}
	if a.JournalRecords != 1 {
		t.Fatalf("active journal records %d, want 1", a.JournalRecords)
	}
	if len(a.Leases) != 3 || a.MaxToken != 3 {
		t.Fatalf("folded state: %d leases, watermark %d; want 3 and 3", len(a.Leases), a.MaxToken)
	}
	// The prev journal's records duplicate the snapshot's leases (same
	// tokens); the audit must treat equal-token re-acquires from an OLDER
	// layer as the idempotent replay they are, not as regressions...
	for _, r := range a.Regressions {
		t.Errorf("idempotent replay flagged as regression: %v", r)
	}
}

func TestAuditEmptyAndMissingDir(t *testing.T) {
	a, err := ReadAudit(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Leases) != 0 || a.MaxToken != 0 || a.TornBytes != 0 {
		t.Fatalf("missing dir audit not empty: %+v", a)
	}
}

// TestAuditAcceptsFuzzySnapshot: a snapshot is read from the live table
// after the rotation, so it may hold a LATER acquire of a name than the
// journal's first records for it. That is healthy as long as the stream
// mints the snapshot's token too.
func TestAuditAcceptsFuzzySnapshot(t *testing.T) {
	dir := t.TempDir()
	writeSnapshotFile(t, dir, 2, lease.Lease{Name: 5, Token: 2, ExpiresAt: at(200)})
	writeJournalFile(t, filepath.Join(dir, journalName), []record{
		{op: opAcquire, name: 5, token: 1, expiresAt: at(100).UnixNano()},
		{op: opRelease, name: 5, token: 1},
		{op: opAcquire, name: 5, token: 2, expiresAt: at(200).UnixNano()},
	})
	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regressions) != 0 {
		t.Fatalf("healthy fuzzy snapshot reported regressions: %v", a.Regressions)
	}
	if len(a.Leases) != 1 || a.Leases[0].Token != 2 || a.MaxToken != 2 {
		t.Fatalf("folded state %+v, watermark %d; want name 5 at token 2", a.Leases, a.MaxToken)
	}
}

// TestAuditFlagsCounterResumedBelowWatermark: the snapshot holds T9 for a
// name and the journal acquires it at T3 without ever minting T9 — the
// token counter restarted below the watermark. Reported once, at the end,
// against the snapshot's token.
func TestAuditFlagsCounterResumedBelowWatermark(t *testing.T) {
	dir := t.TempDir()
	writeSnapshotFile(t, dir, 9, lease.Lease{Name: 5, Token: 9, ExpiresAt: at(100)})
	writeJournalFile(t, filepath.Join(dir, journalName), []record{
		{op: opRelease, name: 5, token: 9},
		{op: opAcquire, name: 5, token: 3, expiresAt: at(200).UnixNano()},
		{op: opRenew, name: 5, token: 3, expiresAt: at(300).UnixNano()},
		{op: opRelease, name: 5, token: 3},
		{op: opAcquire, name: 5, token: 4, expiresAt: at(200).UnixNano()},
	})
	a, err := ReadAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := TokenRegression{Name: 5, PrevToken: 9, Token: 3, Source: journalName}
	if len(a.Regressions) != 1 || a.Regressions[0] != want {
		t.Fatalf("regressions %v, want exactly %v", a.Regressions, want)
	}
}
