package lease

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Close stops the sweeper, releases every live lease back to the namer and
// rejects all further operations. Close is idempotent. Releases the namer
// refuses are counted in Metrics.ReclaimFailed.
func (m *Manager) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	var names []int
	for stripe := range m.shards {
		sh := &m.shards[stripe]
		sh.mu.Lock()
		names = names[:0]
		for i := range sh.slots {
			s := &sh.slots[i]
			if s.who == nil {
				continue
			}
			name := m.nameAt(i, stripe)
			m.live.Add(-1)
			if m.cfg.Observer != nil {
				m.cfg.Observer.ObserveRelease(name, s.token)
			}
			names = append(names, name)
		}
		sh.slots, sh.n = nil, 0
		sh.mu.Unlock()
		// Namer hand-backs run outside the stripe lock, like every other
		// reclaim path.
		m.releaseNames(names)
	}
	close(m.done)
	m.wg.Wait()
	return nil
}

// Shutdown quiesces the manager for a durable restart: it stops the
// sweeper and rejects all further operations like Close, but does NOT
// release live leases back to the namer and records no releases with the
// observer — on disk the lease table keeps describing the held names, and
// the next process rebuilds them via Restore. Without a persistence layer
// Shutdown just leaks the names until process exit; use Close for a
// terminal shutdown. Shutdown and Close are mutually idempotent
// (whichever wins the closed transition defines the semantics).
//
// Shutdown is additionally a quiescence barrier: it flips closed and
// then drains the in-flight operation counter, so a grant (or a batch
// walk, including its unwind) that registered before the flip finishes
// completely — insert, journal records and all — before Shutdown returns,
// and everything arriving after the flip backs out at enterOp. A
// stripe-lock sweep alone would not give this: a multi-stripe batch
// BETWEEN stripes holds no lock yet still owes the table, and any journal
// behind it, its unwind. This barrier is what makes "Shutdown, then
// store.Close" lose nothing, and what lets a caller read the table and
// the counters after Shutdown and find them final.
func (m *Manager) Shutdown() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	for i := 0; m.inflight.Load() != 0; i++ {
		if i < 1000 {
			runtime.Gosched()
		} else {
			// An in-flight acquire can legitimately sit in a long namer
			// probe sequence; stop burning the core while it finishes.
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(m.done)
	m.wg.Wait()
	return nil
}

// enterOp registers an operation against Shutdown's quiescence barrier
// and reports whether the manager is still open. The counter increments
// BEFORE the closed check, so the flip-then-drain in Shutdown cannot
// miss anyone: an operation either sees closed here and backs out, or
// its registration is visible to the drain and Shutdown waits for it.
// The pair of atomic adds is paid once per call, whatever the batch size.
func (m *Manager) enterOp() bool {
	m.inflight.Add(1)
	if m.closed.Load() {
		m.inflight.Add(-1)
		return false
	}
	return true
}

func (m *Manager) exitOp() { m.inflight.Add(-1) }

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
