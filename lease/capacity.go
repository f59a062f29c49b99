package lease

import (
	"fmt"
	"time"

	renaming "repro"
)

// reserve claims k units of MaxLive capacity before the namer is probed.
// Over the cap it reclaims expired leases (the eager sweep the pre-shard
// design ran under its lock) and retries; ErrCapacity is returned only
// after a sweep found nothing to reclaim, so an acquire can no longer be
// rejected while expired leases sit unreclaimed. The cap itself is an
// atomic (SetMaxLive mutates it online), so the whole path stays
// lock-free; a reservation racing a cap change lands under whichever
// cap it observed, which is indistinguishable from it having run just
// before or after the resize.
//
//renamed:noalloc
func (m *Manager) reserve(k int) error {
	for {
		n := m.live.Add(int64(k))
		if max := m.maxLive.Load(); max <= 0 || n <= max {
			return nil
		}
		m.live.Add(-int64(k))
		if m.reclaimForCapacity() == 0 {
			return ErrCapacity
		}
	}
}

// SetMaxLive changes the live-lease cap online: n > 0 caps concurrently
// live leases at n, n == 0 uncaps. Raising the cap takes effect for the
// next reservation. Lowering it below the current live population does
// NOT revoke anything — existing leases ride to their expiry (the same
// honoured-holders semantics Restore documents for a capacity cut
// across a restart) and new acquires fail with ErrCapacity until
// attrition brings live back under the cap. Negative n is rejected.
func (m *Manager) SetMaxLive(n int) error {
	if n < 0 {
		return fmt.Errorf("lease: SetMaxLive(%d): %w", n, renaming.ErrBadConfig)
	}
	if !m.enterOp() {
		m.rejected.Add(1)
		return ErrClosed
	}
	defer m.exitOp()
	m.maxLive.Store(int64(n))
	m.resizes.Add(1)
	return nil
}

// MaxLive returns the instantaneous live-lease cap (0 = uncapped).
//
//renamed:noalloc
func (m *Manager) MaxLive() int { return int(m.maxLive.Load()) }

// capSweepCall is one in-flight capacity-pressure sweep; latecomers block
// on done and share reclaimed instead of sweeping again themselves.
type capSweepCall struct {
	done      chan struct{}
	reclaimed int
}

// reclaimForCapacity runs — or joins — a single capacity-pressure sweep
// and reports how many leases it reclaimed. Pre-fix, every reserve that
// lost the MaxLive race ran its own sweepAll, so a rejection storm at
// capacity had each loser serialize on all O(shards) stripe locks over
// and over; single-flighting means one loser pays the sweep and the rest
// wait for its verdict. A joiner's verdict is computed from a clock read
// that may slightly predate its own failure — acceptable, since the
// capacity check is inherently a race against concurrent expiry.
func (m *Manager) reclaimForCapacity() int {
	m.capSweepMu.Lock()
	if c := m.capSweepActive; c != nil {
		m.capSweepMu.Unlock()
		m.capSweepJoined.Add(1)
		<-c.done
		return c.reclaimed
	}
	c := &capSweepCall{done: make(chan struct{})}
	m.capSweepActive = c
	m.capSweepMu.Unlock()

	m.capSweepsRun.Add(1)
	c.reclaimed = m.sweepAll(m.cfg.Now())

	m.capSweepMu.Lock()
	m.capSweepActive = nil
	m.capSweepMu.Unlock()
	close(c.done)
	return c.reclaimed
}

// SweepOnce reclaims every expired lease now and reports how many it
// reclaimed. The background sweeper calls this on every tick; tests call
// it directly for deterministic reclamation. A stripe whose earliest
// deadline is still ahead costs O(1); a stripe with anything due is
// scanned once (see scanLocked).
func (m *Manager) SweepOnce() int {
	if !m.enterOp() {
		return 0
	}
	defer m.exitOp()
	return m.sweepAll(m.cfg.Now())
}

// sweepAll sweeps every shard, locking each in turn (never two at once).
// Expired names are collected under each stripe's lock but handed back to
// the namer only after that stripe is unlocked: one sweep over O(expired)
// leases must not hold a shard hostage across O(expired) namer.Release
// calls, which can be arbitrarily slow (and, with a journaling observer
// gone synchronous, disk-speed).
func (m *Manager) sweepAll(now time.Time) int {
	nowD := m.since(now)
	reclaimed := 0
	var expired []int
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		expired = m.sweepLocked(sh, i, nowD, expired[:0])
		sh.mu.Unlock()
		m.releaseNames(expired)
		reclaimed += len(expired)
	}
	return reclaimed
}
