package persist

import (
	"cmp"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// farNames are names no namer hands out, each CRC-valid on disk: the
// largest int32, 2^62, and two uvarints from 2^63 up, which decode to
// negative ints.
var farNames = []int{1<<31 - 1, 1 << 62, math.MinInt64, -1}

// farNameFiles is a snapshot and a journal over farNames: the snapshot
// holds each once, the journal re-acquires one, renews one, releases one
// and then names many more, drawn from the whole 64-bit range.
func farNameFiles() (snapshot, journal []byte) {
	var snap []lease.Lease
	for i, name := range farNames {
		snap = append(snap, lease.Lease{Name: name, Token: uint64(i + 1), Owner: "far", ExpiresAt: at(100)})
	}
	journal = []byte(journalMagic)
	for _, r := range []record{
		{op: opAcquire, name: farNames[0], token: 5, expiresAt: at(200).UnixNano(), owner: "far"},
		{op: opRenew, name: farNames[1], token: 2, expiresAt: at(300).UnixNano()},
		{op: opRelease, name: farNames[2], token: 3},
	} {
		journal = appendRecord(journal, r)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for token := uint64(6); token < 6+1<<12; token++ {
		journal = appendRecord(journal, record{op: opAcquire, name: int(rng.Uint64()), token: token,
			expiresAt: at(100).UnixNano(), owner: "far"})
	}
	return snapshotImage(snap, &[2]uint64{4, uint64(len(snap))}), journal
}

// TestFarNamesSizeNothing: a record may name any value up to 2^64, and
// nothing sizes an allocation by it. Open and ReadAudit agree on a
// snapshot, a journal and both over far names, and what Open allocates
// stays within 16 times the bytes of the files it reads, plus 256 KiB
// for the boot compaction's buffers: besides the file itself, the fold
// holds a record, a sort key and a lease per frame, 136 bytes, and an
// acquire frame is at least 14 bytes.
func TestFarNamesSizeNothing(t *testing.T) {
	snapshot, journal := farNameFiles()
	for name, files := range map[string]map[string][]byte{
		"snapshot":          {snapshotName: snapshot},
		"journal":           {journalName: journal},
		"snapshot, journal": {snapshotName: snapshot, journalName: journal},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			size := 0
			for file, b := range files {
				if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
					t.Fatal(err)
				}
				size += len(b)
			}
			a, err := ReadAudit(dir)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Open(dir, Options{Fsync: FsyncNever, CompactEvery: -1})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Crash()
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*size+256<<10); grew > limit {
				t.Fatalf("Open over %d bytes allocated %d bytes, more than %d", size, grew, limit)
			}
			st := s.State()
			if err := sameFold(st.Leases, st.Token, a.Leases, a.MaxToken); err != nil {
				t.Fatalf("Open and ReadAudit disagree: %v", err)
			}
			if !slices.IsSortedFunc(st.Leases, func(a, b lease.Lease) int { return cmp.Compare(a.Name, b.Name) }) {
				t.Fatal("recovered leases are not in name order")
			}
		})
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
	farSnapshot, farJournal := farNameFiles()
	f.Add(farSnapshot, []byte(nil), []byte(nil))
	f.Add([]byte(nil), []byte(nil), farJournal)
	f.Add(farSnapshot, rotated, farJournal)

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
