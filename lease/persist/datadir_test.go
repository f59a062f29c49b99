package persist

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/lease"
)

// hostileCount is a snapshot whose end frame announces 2^30 leases over
// one. Format 1 carried the count in a header and sized a map with it: a
// 29-byte file took Open — and ReadAudit — down with "fatal error: out of
// memory". Format 2 has no number to trust up front; this is the same
// attack against the number it does carry.
func hostileCount() []byte {
	return snapshotImage([]lease.Lease{{Name: 1, Token: 1, ExpiresAt: at(100)}}, &[2]uint64{1, 1 << 30})
}

// bothReaders runs Open and ReadAudit over a directory holding only the
// given files and returns their errors, having checked that neither
// allocated anything like what a hostile length in them asks for.
func bothReaders(t *testing.T, files map[string][]byte) (openErr, auditErr error) {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, auditErr = ReadAudit(dir)
	s, openErr := Open(dir, Options{CompactEvery: -1})
	runtime.ReadMemStats(&after)
	if s != nil {
		s.Crash()
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading %d bytes of data directory allocated %d bytes", len(files[snapshotName]), grew)
	}
	return openErr, auditErr
}

// TestHostileSnapshotIsATypedError: numbers read off disk never size an
// allocation, and a snapshot that does not end in a truthful end frame is
// refused by both readers.
func TestHostileSnapshotIsATypedError(t *testing.T) {
	one := []lease.Lease{{Name: 1, Token: 1, ExpiresAt: at(100)}}
	for name, image := range map[string][]byte{
		"end frame claims 2^30 leases": hostileCount(),
		"no end frame":                 snapshotImage(one, nil),
		"end frame undercounts":        snapshotImage(one, &[2]uint64{1, 0}),
		"bytes after the end frame":    append(snapshotImage(one, &[2]uint64{1, 1}), 0),
		"a name twice":                 snapshotImage(append(one, one...), &[2]uint64{1, 2}),
		"a frame that is not a lease":  append(appendRecord([]byte(snapshotMagic), record{op: opRelease, name: 1, token: 1}), snapshotImage(nil, &[2]uint64{1, 1})[len(snapshotMagic):]...),
		"magic only":                   []byte(snapshotMagic),
	} {
		t.Run(name, func(t *testing.T) {
			openErr, auditErr := bothReaders(t, map[string][]byte{snapshotName: image})
			if openErr == nil || auditErr == nil {
				t.Fatalf("Open = %v, ReadAudit = %v; both must refuse the snapshot", openErr, auditErr)
			}
		})
	}
	// The hostile meta count: one CRC-valid acquire frame announcing 2^30
	// metadata entries.
	payload := appendPayload(nil, record{op: opAcquire, name: 1, token: 1})
	payload = append(payload[:len(payload)-1], 0x80, 0x80, 0x80, 0x80, 0x04) // meta count 2^30
	frame := endFrame(append(beginFrame(nil), payload...), 0)
	openErr, auditErr := bothReaders(t, map[string][]byte{journalName: append([]byte(journalMagic), frame...)})
	if openErr != nil || auditErr != nil {
		t.Fatalf("Open = %v, ReadAudit = %v; an undecodable journal frame is a torn tail, not an error", openErr, auditErr)
	}
}

// TestFormat1IsRefused: a directory written by a format-1 build is
// refused by both readers with an error that names the version, whichever
// file carries it.
func TestFormat1IsRefused(t *testing.T) {
	for _, file := range []string{snapshotName, journalPrevName, journalName} {
		magic := "RLRNJNL1"
		if file == snapshotName {
			magic = "RLRNSNP1"
		}
		openErr, auditErr := bothReaders(t, map[string][]byte{file: []byte(magic + "\x02\x00\x00\x00rest")})
		for _, err := range []error{openErr, auditErr} {
			var fe *FormatError
			if !errors.As(err, &fe) || fe.File != file || fe.Version != '1' {
				t.Fatalf("%s at format 1: got %v, want a FormatError naming the file and version 1", file, err)
			}
		}
	}
}

// FuzzDataDir: whatever bytes sit in the data directory, ReadAudit and
// Open each return an error or a state, never panic, and when neither
// refuses they agree on the leases and the watermark.
func FuzzDataDir(f *testing.F) {
	healthy := f.TempDir()
	s := openAlways(f, healthy)
	s.ObserveAcquire(lease.Lease{Name: 1, Token: 1, Owner: "a", ExpiresAt: at(100), Meta: map[string]string{"k": "v"}})
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 2, ExpiresAt: at(100)})
	if err := s.Compact(); err != nil {
		f.Fatal(err)
	}
	s.ObserveRenew(1, 1, at(200))
	s.ObserveRelease(2, 2)
	s.ObserveAcquire(lease.Lease{Name: 2, Token: 3, ExpiresAt: at(300)})
	if err := s.Crash(); err != nil {
		f.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(healthy, snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(healthy, journalName))
	if err != nil {
		f.Fatal(err)
	}
	rotated := appendRecord([]byte(journalMagic), recordFromLease(lease.Lease{Name: 1, Token: 1, Owner: "a", ExpiresAt: at(100)}))
	f.Add(snapshot, rotated, journal)
	f.Add([]byte("RLRNSNP1\x03\x00\x00\x00"), []byte(nil), []byte("RLRNJNL1"))
	f.Add(snapshotImage([]lease.Lease{{Name: 1, Token: 1, ExpiresAt: at(100)}}, nil), []byte(nil), journal)
	f.Add(hostileCount(), rotated, []byte(nil))

	f.Fuzz(func(t *testing.T, snapshot, prev, journal []byte) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{snapshotName: snapshot, journalPrevName: prev, journalName: journal} {
			if len(b) == 0 {
				continue // an absent file
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		a, auditErr := ReadAudit(dir)
		s, openErr := Open(dir, Options{CompactEvery: -1})
		if (auditErr == nil) != (openErr == nil) {
			t.Fatalf("ReadAudit = %v but Open = %v", auditErr, openErr)
		}
		if openErr != nil {
			return
		}
		defer s.Crash()
		st := s.State()
		if st.Token != a.MaxToken || len(st.Leases) != len(a.Leases) {
			t.Fatalf("Open recovered %d leases under watermark %d, ReadAudit %d under %d",
				len(st.Leases), st.Token, len(a.Leases), a.MaxToken)
		}
		for i, l := range st.Leases {
			al := a.Leases[i]
			if l.Name != al.Name || l.Token != al.Token || l.Owner != al.Owner || !l.ExpiresAt.Equal(al.ExpiresAt) || len(l.Meta) != len(al.Meta) {
				t.Fatalf("lease %d: Open recovered %+v, ReadAudit %+v", i, l, al)
			}
		}
	})
}
