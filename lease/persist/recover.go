package persist

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/lease"
)

// fold is the durable state as a reader of the data directory rebuilds
// it: the snapshot's leases with the journal records applied over them,
// plus the token watermark. It is the only implementation of the record
// fold, and it exists only while a directory is being read — Open builds
// one, hands it to Restore through State and drops it when the manager's
// own table takes over; ReadAudit builds one and returns it. A running
// store folds nothing.
type fold struct {
	leases   map[int]lease.Lease
	maxToken uint64
}

// apply folds one record in. Token guards make the fold idempotent and
// safe against replaying records over a state that already reflects them
// or their successors: a verdict about an old token never touches a lease
// minted after it, and an acquire never downgrades a name to an older
// holder (per-name tokens strictly increase, so a smaller token IS an
// older record). Store.Compact's snapshots rely on exactly this.
func (f *fold) apply(r record) {
	if r.token > f.maxToken {
		f.maxToken = r.token
	}
	switch r.op {
	case opAcquire:
		if l, ok := f.leases[r.name]; ok && l.Token > r.token {
			return
		}
		f.leases[r.name] = leaseFromRecord(r)
	case opRenew:
		if l, ok := f.leases[r.name]; ok && l.Token == r.token {
			l.ExpiresAt = time.Unix(0, r.expiresAt)
			f.leases[r.name] = l
		}
	case opRelease, opExpire:
		if l, ok := f.leases[r.name]; ok && l.Token == r.token {
			delete(f.leases, r.name)
		}
	}
}

// Walk implements lease.Table, in map order (no reader needs another), so
// the boot compaction goes through the same writer a live table does.
func (f *fold) Walk(yield func(chunk []lease.Lease) error) error {
	var one [1]lease.Lease
	for _, l := range f.leases {
		one[0] = l
		if err := yield(one[:]); err != nil {
			return err
		}
	}
	return nil
}

// Occupied implements lease.Table.
func (f *fold) Occupied() int { return len(f.leases) }

// sorted returns the leases ordered by name.
func (f *fold) sorted() []lease.Lease {
	leases := make([]lease.Lease, 0, len(f.leases))
	for _, l := range f.leases {
		leases = append(leases, l)
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i].Name < leases[j].Name })
	return leases
}

// Open recovers the durable state under dir (creating it if needed):
// load the snapshot, replay the journal over it, truncate any torn tail,
// and — when the journal held anything — compact immediately so the next
// recovery starts from a fresh snapshot. The returned store is ready to
// observe a manager; read the recovered state with State. A directory
// written in another on-disk format is refused with a *FormatError.
func Open(dir string, opts Options) (*Store, error) {
	openStart := time.Now()
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	st, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, recovered: st, done: make(chan struct{})}
	// A staging journal left by a crashed rotation carries no records —
	// it is created empty and only ever renamed into place; drop it.
	os.Remove(filepath.Join(dir, journalNextName))
	// A journal.wal.prev means the last process died (or errored) inside
	// a compaction. Its records are strictly older than the active
	// journal's, so they fold in first; the snapshot beside them may
	// already reflect them, which the fold's token guards make a no-op.
	prev, ok, err := readJournal(filepath.Join(dir, journalPrevName))
	if err != nil {
		return nil, err
	}
	if ok {
		// Fsynced before its rename, so never torn; a bad frame still stops it.
		_, s.replayedRecords = scanFrames(prev, st.apply)
	}
	if err := s.openJournal(); err != nil {
		return nil, err
	}
	s.maxToken = st.maxToken
	s.recoveredLeases = len(st.leases)
	if s.replayedRecords > 0 {
		// Start the epoch from a fresh snapshot: replay work is not paid
		// twice, release/expire records stop occupying journal space, and
		// the prev file (if any) is retired.
		if err := s.snapshotAndClear(st); err != nil {
			s.f.Close()
			return nil, err
		}
	}
	s.recoveryDuration = time.Since(openStart)
	s.wg.Add(1)
	go s.flushLoop()
	if s.opts.CompactEvery > 0 {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// startJournal cuts f back to an empty journal — the magic alone, fsynced
// before any append can land after it, so a crash cannot surface stale
// frames past the new tail — and positions it for appends.
func startJournal(f *os.File) error {
	err := f.Truncate(0)
	if err == nil {
		_, err = f.WriteAt([]byte(journalMagic), 0)
	}
	if err == nil {
		_, err = f.Seek(int64(len(journalMagic)), 0)
	}
	if err == nil {
		err = f.Sync()
	}
	return err
}

// openJournal opens, validates, replays and truncates the journal file,
// leaving s.f positioned for appends. Runs during Open, before any
// concurrency — no locking needed.
func (s *Store) openJournal() error {
	path := filepath.Join(s.dir, journalName)
	body, ok, err := readJournal(path)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("persist: journal: %w", err)
	}
	if !ok {
		// Fresh file, or a crash tore the magic itself: (re)initialize.
		body, err = nil, startJournal(f)
	}
	valid, n := scanFrames(body, s.recovered.apply)
	end := int64(len(journalMagic)) + valid
	if torn := int64(len(body)) - valid; torn > 0 && err == nil {
		// Torn tail from a mid-write crash: drop it so the file is a
		// well-formed frame sequence again, and persist the truncation
		// before anything is appended after it.
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
		s.truncatedBytes = torn
	}
	if err == nil {
		_, err = f.Seek(end, 0)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: journal: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, writerSize)
	s.records = int64(n)
	s.replayedRecords += n
	return nil
}

// snapshotAndClear is the compaction of a store nothing is appending to —
// Open's, from the fold, and Close's, from the quiesced table: snapshot,
// then empty the active journal and retire any prev. The order matters:
// the snapshot must be durable before the journals that fed it are
// cleared. Nothing is buffered, so the watermark is read without seal's
// fsync — which at boot would write out a journal about to be truncated.
// It must not be called under s.mu.
func (s *Store) snapshotAndClear(t lease.Table) error {
	err := writeSnapshot(s.dir, t, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.maxToken
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := startJournal(s.f); err != nil {
		return fmt.Errorf("persist: compact: %w", err)
	}
	s.w.Reset(s.f)
	s.records, s.dirty = 0, false
	if err := os.Remove(filepath.Join(s.dir, journalPrevName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("persist: compact: %w", err)
	}
	s.compactions.Add(1)
	return nil
}

// State returns what Open recovered, in the shape lease.Manager.Restore
// consumes: every lease the directory held, ordered by name, plus the
// fencing-token watermark. It is the recovered state and nothing else:
// the store does not track the table afterwards, and the leases are
// dropped once Restore has handed the store the manager's own table.
func (s *Store) State() lease.RestoreState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return lease.RestoreState{Leases: s.recovered.sorted(), Token: s.recovered.maxToken}
}
