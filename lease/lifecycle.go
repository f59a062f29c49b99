package lease

import (
	"errors"
	"fmt"
)

// Shutdown stops the manager, and is the only way to: it rejects all
// further operations, waits until every operation already admitted has
// finished, and stops the sweeper. It keeps the table — nothing is
// released to the namer or recorded with the observer — so on disk the
// lease table keeps describing the held names and the next process
// rebuilds them via Restore; without a persistence layer the names simply
// die with the process. Shutdown is idempotent.
//
// The wait is a quiescence barrier: every operation holds the gate's read
// side, and Shutdown takes the write side and never gives it back. An
// operation either fails to enter and backs out, or entered before the
// write lock was pending and completes — a multi-stripe AcquireBatch
// inserts and journals all k leases — before Shutdown returns. This is
// what makes "Shutdown, then store.Close" lose nothing, and what lets a
// caller read the table and the counters after Shutdown and find them
// final.
func (m *Manager) Shutdown() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	m.gate.Lock()
	close(m.done)
	m.wg.Wait()
	return nil
}

// enterOp admits an operation past Shutdown's barrier and reports whether
// the manager is still open. It never blocks: once Shutdown's write lock
// is pending or held, the read lock is refused. The pair of atomics is
// paid once per call, whatever the batch size.
func (m *Manager) enterOp() bool { return m.gate.TryRLock() }

// exitOp ends an operation enterOp admitted; the last one out lets a
// waiting Shutdown through.
func (m *Manager) exitOp() { m.gate.RUnlock() }

// Adopter is the namer surface Restore needs: re-seizing the exact names
// the restored leases hold, so a fresh grant cannot be handed a name
// that already has a live holder. Every namer constructed by the renaming
// package implements it.
type Adopter interface {
	// Adopt marks name as held, as if acquired.
	Adopt(name int) error
}

// RestoreState is recovered durable state handed to Restore — typically
// persist.Store.State() after snapshot load and journal replay.
type RestoreState struct {
	// Leases are the leases live as of the crash or shutdown.
	Leases []Lease
	// Token is the fencing-token watermark: the highest token durably
	// recorded before the restart. The manager's counter resumes strictly
	// above it (and above every restored lease's token), so tokens minted
	// after restart never collide with pre-crash tokens — a stale
	// pre-crash holder can never outrank a post-crash one.
	Token uint64
}

// Restore rebuilds the lease table from recovered state: every still-
// unexpired lease is re-inserted into its stripe's slot table with its
// original fencing token and deadline, the live counter is re-established,
// its name is re-seized in the namer via Adopt, and the fencing-token
// counter is advanced past the recovered watermark. Leases whose TTL lapsed while the service was down are not
// restored; they count as expired (Metrics.Expired, ObserveExpire) and
// their names stay free in the namer.
//
// Restore must run on a fresh manager — after New, before any grant; a
// manager that already minted tokens or holds leases rejects it. The
// restored population may exceed MaxLive (e.g. after a capacity cut
// across the restart): existing holders are honoured, and new acquires
// stay rejected until attrition brings the count back under the cap. An
// Adopt failure aborts the restore mid-way with the manager in a partial
// state; treat that as fatal and discard the manager. A Restore that
// succeeds ends by handing the table to the observer (ObserveTable).
func (m *Manager) Restore(st RestoreState) (restored, expired int, err error) {
	if m.closed.Load() {
		return 0, 0, ErrClosed
	}
	if m.token.Load() != 0 || m.live.Load() != 0 {
		return 0, 0, errors.New("lease: Restore on a manager that already granted leases")
	}
	adopter, ok := m.namer.(Adopter)
	if !ok && len(st.Leases) > 0 {
		return 0, 0, fmt.Errorf("lease: namer %T cannot adopt restored names", m.namer)
	}
	now := m.cfg.Now()
	size := m.stripeSize()
	watermark := st.Token
	for _, l := range st.Leases {
		if l.Token > watermark {
			watermark = l.Token
		}
		if now.After(l.ExpiresAt) {
			// Lapsed while the service was down: not restored, never
			// adopted (the name stays free in the namer), and the observer
			// hears the expiry so the durable state drops it too.
			m.expired.Add(1)
			if m.cfg.Observer != nil {
				m.cfg.Observer.ObserveExpire(l.Name, l.Token)
			}
			expired++
			continue
		}
		if aerr := adopter.Adopt(l.Name); aerr != nil {
			return restored, expired, fmt.Errorf("lease: restore name %d: %w", l.Name, aerr)
		}
		// Adopt has vouched for the name lying inside the namespace: a name
		// read off disk never sizes the table.
		sh := m.shard(l.Name)
		sh.mu.Lock()
		sh.insert(l.Name, m.shardBits, size, l.Token, m.since(l.ExpiresAt), sh.holderFor(l.Owner, cloneMeta(l.Meta)))
		sh.mu.Unlock()
		m.live.Add(1)
		restored++
	}
	// Monotonic fencing across restart: resume the counter strictly above
	// everything ever durably issued.
	if watermark > m.token.Load() {
		m.token.Store(watermark)
	}
	// Only now is the table complete: restored leases are never observed
	// again, so an observer that snapshotted a half-restored table would
	// lose the rest. A Restore that failed above hands nothing over.
	if m.cfg.Observer != nil {
		m.cfg.Observer.ObserveTable(m)
	}
	return restored, expired, nil
}
