// Package persist is the crash-durability layer for the lease table: a
// CRC-framed append-only journal plus periodic snapshot compaction, so a
// restarted renamed process recovers every unexpired lease — with its
// fencing token — instead of silently dropping all of them and resetting
// the token counter (which let restarted holders collide and stale tokens
// win).
//
// A Store implements lease.Observer: wire it into lease.Config.Observer
// and every grant, renewal, release and expiry is journaled in the order
// the table applied it (the manager invokes observers under the owning
// stripe's lock, so per-name order is exact). On restart, Open loads the
// latest snapshot, replays the journal over it — truncating a torn tail
// from a mid-write crash — and State() hands the recovered leases plus
// the fencing-token watermark to lease.Manager.Restore.
//
//	st, _ := persist.Open(dir, persist.Options{Fsync: persist.FsyncInterval})
//	mgr, _ := lease.New(nm, lease.Config{Observer: st})
//	restored, expired, _ := mgr.Restore(st.State())
//	...
//	mgr.Shutdown() // quiesce WITHOUT releasing names
//	st.Close()     // final snapshot: next boot replays nothing
//
// The manager's table is the only in-memory copy of the live leases. A
// running store keeps none: an append raises the token watermark, encodes
// the record and writes it, and a snapshot is streamed out of the
// manager's own table, which Restore hands over as its last act (see
// Compact for why a snapshot read from a moving table is sound). Until
// then — and for a manager that never calls Restore — the store only
// journals: Compact returns ErrNoTable and Close leaves the files as they
// are.
//
// Durability is as strong as the fsync policy: FsyncAlways makes every
// record durable before the caller sees the result (a granted token can
// never be forgotten, at the cost of one fsync per operation, serialized
// under the journal mutex); FsyncInterval (the default) bounds loss to
// the configured window — after kill -9 the tail of that window may be
// gone, which can forget the last few renews (restored expiries run a
// beat stale) or, worst case, re-issue the tokens of just-granted leases;
// FsyncNever leaves flushing to the OS entirely. Against plain process
// crashes (kill -9, panics) even FsyncNever loses at most what sat in the
// store's 64 KiB user-space buffer since the last FsyncEvery tick,
// because the page cache survives the process.
//
// The files are on-disk format 2 (journal.go, snapshot.go); Open and
// ReadAudit refuse a format-1 directory with a *FormatError.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/lease"
)

const (
	journalName = "journal.wal"
	// journalPrevName is the journal a compaction has rotated aside. It
	// exists only until that compaction's snapshot is in place; finding
	// one at Open means the process died in between, and its records
	// replay BEFORE the active journal's (they are strictly older).
	journalPrevName = "journal.wal.prev"
	// journalNextName is the staging name of a rotation's replacement
	// journal, prepared outside the store mutex and renamed into place
	// under it. One left on disk is a crashed rotation's garbage.
	journalNextName = "journal.wal.next"
	snapshotName    = "snapshot.db"
)

// Policy selects when journal appends reach the disk.
type Policy int

const (
	// FsyncInterval (the default) flushes and fsyncs the journal every
	// Options.FsyncEvery: bounded loss, amortized cost.
	FsyncInterval Policy = iota
	// FsyncAlways fsyncs after every record, before the lease operation
	// returns — strict durability, one fsync per operation.
	FsyncAlways
	// FsyncNever flushes to the OS on the FsyncEvery cadence but never
	// forces the disk; a machine crash can lose the page cache, a mere
	// process crash cannot.
	FsyncNever
)

// ParsePolicy maps the CLI spelling ("always", "interval", "never") to a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval or never)", s)
}

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Options tunes a Store. The zero value is usable: interval fsync every
// 100ms, compaction considered every minute.
type Options struct {
	// Fsync is the journal durability policy.
	Fsync Policy
	// FsyncEvery is the flush (and, under FsyncInterval, fsync) cadence.
	// Defaults to 100ms.
	FsyncEvery time.Duration
	// CompactEvery is how often the background compactor considers
	// snapshotting. Defaults to 1 minute; negative disables background
	// compaction (Close still writes a final snapshot, and Compact can be
	// called explicitly).
	CompactEvery time.Duration
	// CompactMinRecords is the journal-length floor below which a
	// background compaction pass is skipped: a snapshot costs O(live), so
	// it only pays once replaying the journal would cost more. The pass
	// runs when records-since-snapshot >= max(CompactMinRecords, leases in
	// the table).
	// Defaults to 4096.
	CompactMinRecords int
}

func (o *Options) applyDefaults() {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = time.Minute
	}
	if o.CompactMinRecords <= 0 {
		o.CompactMinRecords = 4096
	}
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// RecoveredLeases, ReplayedRecords and TruncatedBytes describe what
	// Open found: leases live after snapshot+replay, journal records
	// replayed, and torn-tail bytes dropped.
	RecoveredLeases int
	ReplayedRecords int
	TruncatedBytes  int64
	// RecoveryDuration is how long Open spent rebuilding state: snapshot
	// load, journal replay, torn-tail truncation and (when the journal
	// held anything) the boot compaction.
	RecoveryDuration time.Duration
	// Appends, Syncs and Compactions count work since Open.
	Appends     int64
	Syncs       int64
	Compactions int64
	// JournalBytes is the framed bytes appended to the journal since
	// Open — the write-amplification numerator for the durability layer.
	JournalBytes int64
	// JournalRecords is the journal length since the last snapshot — the
	// replay cost a crash right now would pay.
	JournalRecords int64
	// Err is the sticky first journal-write failure, nil while healthy.
	// The manager's table is unaffected by a journal failure, so the next
	// successful compaction repairs durability from it — but until then a
	// crash loses everything after the error. Alert on it.
	Err error
}

// Store is the durable side of a lease table: the journal that makes each
// transition durable (fed through the lease.Observer callbacks) and the
// snapshot that bounds recovery. It holds no copy of the leases. All
// methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	// compactMu serializes whole compactions (rotate → snapshot → delete);
	// it is taken before mu, never under it. Without it a concurrent Compact
	// could rotate over a prev whose records no snapshot covers yet.
	compactMu sync.Mutex

	// mu is taken under the manager's stripe locks (the Observe*
	// callbacks), so nothing that takes a stripe lock — Table.Walk,
	// Table.Occupied — may run under it.
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
	// table is the manager's table, nil until ObserveTable: what
	// snapshots are read from.
	table lease.Table
	// recovered is what Open read off disk, for State; its leases are
	// dropped when the table arrives.
	recovered *fold
	maxToken  uint64 // highest token journaled or recovered
	records   int64  // journal records since the last snapshot
	dirty     bool   // buffered or written bytes not yet fsynced
	closed    bool
	err       error // sticky first journal failure

	// frame is encode scratch, reused under mu so steady-state appends
	// allocate nothing.
	frame []byte

	// Counters for Stats, under mu like the journal they count.
	appends      int64
	syncs        int64
	journalBytes int64

	compactions atomic.Int64 // counted by Compact, which holds only compactMu

	recoveredLeases  int
	replayedRecords  int
	truncatedBytes   int64
	recoveryDuration time.Duration

	done chan struct{}
	wg   sync.WaitGroup
}

// ObserveAcquire, ObserveRenew, ObserveRelease and ObserveExpire implement
// lease.Observer: one journal record each.
func (s *Store) ObserveAcquire(l lease.Lease) { s.append(recordFromLease(l)) }
func (s *Store) ObserveRenew(name int, token uint64, expiresAt time.Time) {
	s.append(record{op: opRenew, name: name, token: token, expiresAt: expiresAt.UnixNano()})
}
func (s *Store) ObserveRelease(name int, token uint64) {
	s.append(record{op: opRelease, name: name, token: token})
}
func (s *Store) ObserveExpire(name int, token uint64) {
	s.append(record{op: opExpire, name: name, token: token})
}

// ObserveTable implements lease.Observer: from here on snapshots are read
// from t, and the leases Open recovered — now in t — are dropped.
func (s *Store) ObserveTable(t lease.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table = t
	s.recovered.leases = nil
}

// append journals one record: raise the watermark, encode, write. The
// Observer contract carries no error channel, so journal failures go
// sticky (see Stats.Err); the manager's table is correct regardless, and
// the next successful compaction restores durability from it.
func (s *Store) append(rec record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.token > s.maxToken {
		s.maxToken = rec.token
	}
	if s.closed {
		s.failLocked(errors.New("persist: append after Close"))
		return
	}
	s.frame = appendRecord(s.frame[:0], rec)
	if _, err := s.w.Write(s.frame); err != nil {
		s.failLocked(err)
		return
	}
	s.records++
	s.appends++
	s.journalBytes += int64(len(s.frame))
	if s.opts.Fsync == FsyncAlways {
		s.syncLocked()
	} else {
		s.dirty = true
	}
}

// syncLocked flushes the buffered writer and fsyncs the journal; a failure
// goes sticky.
func (s *Store) syncLocked() {
	err := s.w.Flush()
	if err == nil {
		err = s.f.Sync()
	}
	if err != nil {
		s.failLocked(err)
		return
	}
	s.dirty = false
	s.syncs++
}

func (s *Store) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
}

// flushLoop is the FsyncInterval/FsyncNever background writer: every
// FsyncEvery it pushes buffered records to the OS and (interval policy)
// to the disk.
func (s *Store) flushLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.FsyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.mu.Lock()
			if s.dirty && !s.closed {
				if s.opts.Fsync != FsyncNever {
					s.syncLocked()
				} else if err := s.w.Flush(); err != nil {
					s.failLocked(err)
				} else {
					s.dirty = false
				}
			}
			s.mu.Unlock()
		}
	}
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		RecoveredLeases:  s.recoveredLeases,
		ReplayedRecords:  s.replayedRecords,
		TruncatedBytes:   s.truncatedBytes,
		RecoveryDuration: s.recoveryDuration,
		Appends:          s.appends,
		Syncs:            s.syncs,
		Compactions:      s.compactions.Load(),
		JournalBytes:     s.journalBytes,
		JournalRecords:   s.records,
		Err:              s.err,
	}
}

// stop marks the store closed and waits out its goroutines; it reports
// false when that had already happened.
func (s *Store) stop() bool {
	s.mu.Lock()
	was := s.closed
	s.closed = true
	s.mu.Unlock()
	if !was {
		close(s.done)
		s.wg.Wait()
	}
	return !was
}

// Close stops the background goroutines, writes a final snapshot from
// the table (the graceful-shutdown snapshot: the next Open replays
// nothing) and closes the journal. Quiesce the manager
// (lease.Manager.Shutdown) BEFORE closing the store, or late observer
// callbacks land in the sticky error. A store no table was ever handed to
// has nothing to snapshot from: it flushes, fsyncs and leaves the files —
// which describe the table completely — as they are. Idempotent; returns
// the sticky journal error if one occurred.
func (s *Store) Close() error {
	if !s.stop() {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	// Flush what's buffered first, so the journal is whole even if the
	// snapshot write fails. A broken journal writer does NOT skip the
	// snapshot, which comes from the table and is what rescues it.
	s.seal()
	s.mu.Lock()
	table := s.table
	s.mu.Unlock()
	var err error
	if table != nil {
		err = s.snapshotAndClear(table)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.err
	}
	return err
}

// Crash abandons the store the way kill -9 would: background goroutines
// stop, the file handle closes, and anything still in the user-space
// buffer is lost — no flush, no snapshot. The on-disk state is exactly
// what the fsync policy had made durable. Recovery tests and the crash
// experiment use it; production code wants Close.
func (s *Store) Crash() error {
	if !s.stop() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
