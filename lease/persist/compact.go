package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ErrNoTable is what Compact returns until lease.Manager.Restore has
// handed the store the manager's table. It is benign — the store keeps
// journaling and the files stay a complete description of the table.
var ErrNoTable = errors.New("persist: no lease table to snapshot yet: lease.Manager.Restore has not completed")

// errStoreClosed is compaction's benign loser-of-the-race-with-Close
// outcome; callers that retry in the background must not treat it as a
// durability failure.
var errStoreClosed = errors.New("persist: store closed")

// compactLoop periodically snapshots once the journal is long enough
// that replaying it would cost more than writing the table out.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.CompactEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.mu.Lock()
			table, records := s.table, s.records
			s.mu.Unlock()
			// Occupied takes stripe locks, so it is read outside s.mu.
			if table == nil || records < max(compactMinRecords, int64(table.Occupied())) {
				continue
			}
			// Losing the race to Close is not a durability failure: in the
			// sticky error it would make a clean shutdown report FAILED.
			if err := s.Compact(); err != nil && !errors.Is(err, errStoreClosed) {
				s.mu.Lock()
				s.failLocked(err)
				s.mu.Unlock()
			}
		}
	}
}

// Compact forces a snapshot now: the manager's table is streamed out,
// atomically replaces the snapshot, and the journal restarts empty.
//
// The store keeps no copy of the table, so the snapshot is fuzzy: read
// from the live table, a few thousand slots per stripe-lock hold, while
// leases keep changing. Observer appends run under the manager's stripe
// locks and block on s.mu, so the lock order is stripe → s.mu and neither
// the walk nor any disk write of a compaction happens under s.mu:
//
//  1. rotate: under s.mu, flush+fsync the active journal, move it aside
//     as journal.wal.prev, start a fresh journal.wal; fsync the directory.
//  2. Stream Table.Walk into snapshot.db.tmp.
//  3. seal: under s.mu, flush+fsync the active journal and read the token
//     watermark. A transition the walk saw was journaled before its
//     stripe lock was dropped, so the durable journal now covers
//     everything the snapshot reflects.
//  4. Write the end frame, fsync, rename over snapshot.db, fsync the
//     directory, remove journal.wal.prev.
//
// Why replaying journals over such a snapshot is right. Recovery replays
// journal.wal.prev (if a crash left it) and then journal.wal, whole, over
// the snapshot it finds. Per name, that snapshot holds the state after
// SOME PREFIX of the name's records in those journals (a slot is read at
// one instant under its stripe lock, and records are appended under that
// same lock). Per-name tokens strictly increase, an acquire overwrites
// unless the entry's token is larger, and renew/release/expire apply only
// on a token match (fold.settle). So the records the snapshot already
// reflects are no-ops or re-establish what is there, the rest apply as
// they did live, and the replay converges on the same final state as
// replaying them over the pre-rotation state. A crash anywhere leaves the
// old snapshot or the new one, and prev + active cover both.
//
// A broken journal writer does not stop a compaction: the table, unlike
// the journal, still holds every lease, and the snapshot written from it
// is how durability gets restored after a journal failure.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	table, closed := s.table, s.closed
	s.mu.Unlock()
	if closed {
		return errStoreClosed
	}
	if table == nil {
		return ErrNoTable
	}

	// A leftover prev means an earlier compaction failed after rotating
	// (its snapshot write errored). Rotating again would orphan those
	// records, so finish the pending fold instead: snapshot the table —
	// which covers prev and everything since — without rotating. The
	// active journal keeps its records until the next healthy compaction;
	// replaying them over the new snapshot is idempotent. Only a definite
	// not-exist takes the rotate path: a Stat that fails any other way
	// (EIO, EACCES) must be treated as "prev may exist".
	if _, err := os.Stat(filepath.Join(s.dir, journalPrevName)); errors.Is(err, os.ErrNotExist) {
		if err := s.rotate(); err != nil {
			return err
		}
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	if err := writeSnapshot(s.dir, table, s.seal); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(s.dir, journalPrevName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("persist: compact: %w", err)
	}
	s.compactions.Add(1)
	return nil
}

// seal makes the active journal durable and returns the token watermark:
// the step between a snapshot's walk and its end frame. A sync failure
// goes sticky but does not stop the snapshot, which is what heals it. It
// takes s.mu, so like the walk before it, it is never called under it.
func (s *Store) seal() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
	return s.maxToken
}

// rotate flushes and fsyncs the active journal, moves it aside as
// journal.wal.prev and starts a fresh one. The replacement is created,
// given its magic and fsynced BEFORE the store mutex is taken — none of
// that depends on store state, and every fsync held under s.mu is a stall
// for every lease operation on every stripe — so under s.mu there is one
// (usually small) journal fsync and two renames; the caller fsyncs the
// directory. A rotation that fails partway renames the file back and
// leaves the store appending to the original handle — degraded to a
// longer journal, not wedged on a closed fd.
func (s *Store) rotate() (err error) {
	path := filepath.Join(s.dir, journalName)
	prev := filepath.Join(s.dir, journalPrevName)
	nextPath := filepath.Join(s.dir, journalNextName)
	next, err := os.OpenFile(nextPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("persist: rotate: %w", err)
	}
	defer func() {
		if err != nil {
			next.Close()
			os.Remove(nextPath)
			err = fmt.Errorf("persist: rotate: %w", err)
		}
	}()
	if err = startJournal(next); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// If this fails the journal writer is broken — bufio errors are sticky,
	// so some buffered records will never reach this file and every future
	// flush would fail the same way. Wedging the compaction on it would
	// make the breakage permanent; rotating FORWARD is strictly better: the
	// table still holds every lease, the snapshot about to be written
	// covers them, and w.Reset onto the fresh journal clears the writer.
	// The sticky Stats.Err keeps the incident (and its loss window) visible.
	s.syncLocked()
	// Renames follow the inode, not the handle: until the swap below every
	// fallback path still has a live journal under s.f.
	if err := os.Rename(path, prev); err != nil {
		return err
	}
	if err := os.Rename(nextPath, path); err != nil {
		// Best-effort restore of the original layout; if even the
		// rename-back fails, prev remains and the next compaction skips
		// the rotation, so nothing rotates over it.
		os.Rename(prev, path)
		return err
	}
	// Replacement secured: swap handles and retire the old one. Its data
	// is already synced, so a close error is only worth recording.
	old := s.f
	s.f = next
	s.w.Reset(next)
	s.records, s.dirty = 0, false
	if err := old.Close(); err != nil {
		s.failLocked(err)
	}
	return nil
}
