package lease

import (
	"context"
	"fmt"
	"time"

	renaming "repro"
)

// The manager's data path: AcquireBatch, RenewBatch and ReleaseBatch, the
// only request shape there is (one lease is a batch of one). All three
// bucket their items by lock stripe so each involved shard is locked
// exactly once however many items it received, read the clock once per
// call and settle the counters once per batch instead of once per lease.
// At production scale renewal — not acquisition — is the dominant
// traffic: every live holder heartbeats every TTL/3, so a standing
// population of a million holders means a million renewals per heartbeat
// interval while the acquire path idles.
//
// AcquireBatch is all-or-nothing. RenewBatch and ReleaseBatch are NOT:
// each item carries its own typed outcome (ErrUnknownName, ErrWrongToken,
// ErrExpired, ...), because a heartbeating session must learn exactly
// which of its leases it lost — fencing would be useless if one stale
// token poisoned the whole heartbeat.

// RenewItem identifies one lease in a RenewBatch: the (name, token) pair
// minted at acquisition.
type RenewItem struct {
	Name  int
	Token uint64
}

// RenewResult is the per-item outcome of a RenewBatch. On success Err is
// nil and Lease carries the extended deadline; otherwise Err is one of
// the typed refusals (ErrUnknownName, ErrWrongToken, ErrExpired — or
// ErrClosed / an error matching renaming.ErrCancelled for items a
// mid-batch shutdown or cancellation left unprocessed).
type RenewResult struct {
	Lease Lease
	Err   error
}

// ReleaseItem identifies one lease in a ReleaseBatch.
type ReleaseItem struct {
	Name  int
	Token uint64
}

// ReleaseResult is the per-item outcome of a ReleaseBatch. A lease that
// was removed but whose name the namer refused to take back (e.g.
// ErrOneShot) carries that namer error.
type ReleaseResult struct {
	Err error
}

// stripePlan groups a batch's items by the lock stripe their name routes
// to, so the batch walk locks each involved stripe exactly once — the one
// bucketing mechanism for AcquireBatch, RenewBatch and ReleaseBatch. Built
// with a counting sort into flat slices carved from a single allocation —
// a renewal storm runs this on every heartbeat, so no per-stripe map or
// slice-of-slices allocations. Stripes are visited in index order; items
// keep their request order within a stripe.
type stripePlan struct {
	idxs   []int // item indices, grouped by stripe
	names  []int // names[j] is the name of item idxs[j]
	starts []int // starts[s]..starts[s+1] is stripe s's group in idxs and names
}

// group returns the item indices routed to stripe s.
func (p *stripePlan) group(s int) []int { return p.idxs[p.starts[s]:p.starts[s+1]] }

// groupNames returns the names routed to stripe s, aligned with group(s).
func (p *stripePlan) groupNames(s int) []int { return p.names[p.starts[s]:p.starts[s+1]] }

// restFrom returns all item indices in stripe s and later — the
// unprocessed remainder when a batch walk aborts at stripe s.
func (p *stripePlan) restFrom(s int) []int { return p.idxs[p.starts[s]:] }

// planStripes builds the stripe plan for n items whose i-th name is
// name(i).
func (m *Manager) planStripes(name func(i int) int, n int) stripePlan {
	shards := len(m.shards)
	buf := make([]int, 2*shards+1+2*n)
	starts, buf := buf[:shards+1], buf[shards+1:]
	fill, buf := buf[:shards], buf[shards:]
	idxs, names := buf[:n], buf[n:]
	for i := 0; i < n; i++ {
		starts[(name(i)&m.mask)+1]++
	}
	for s := 0; s < shards; s++ {
		starts[s+1] += starts[s]
	}
	for i := 0; i < n; i++ {
		nm := name(i)
		s := nm & m.mask
		j := starts[s] + fill[s]
		idxs[j], names[j] = i, nm
		fill[s]++
	}
	return stripePlan{idxs: idxs, names: names, starts: starts}
}

// AcquireBatch grants k leases in one call: one capacity reservation of k
// units, one batched namer acquisition (renaming.AcquireN, which amortizes
// its PRNG-stream setup across the batch), and one lock-stripe visit per
// involved stripe instead of one per lease. Either all k leases are
// granted or none: on exhaustion, cancellation or a race with Close, every
// name already taken is handed back and the reservation undone. Each lease
// carries its own fencing token; ttl and meta apply to all of them.
func (m *Manager) AcquireBatch(ctx context.Context, owner string, k int, ttl time.Duration, meta map[string]string) ([]Lease, error) {
	if k < 1 {
		return nil, fmt.Errorf("lease: AcquireBatch(%d): %w", k, renaming.ErrBadConfig)
	}
	if !m.enterOp() {
		m.rejected.Add(1)
		return nil, ErrClosed
	}
	defer m.exitOp()
	// Reject impossible batch sizes before touching any shared state: a k
	// beyond the namespace can never complete, and a k beyond MaxLive must
	// not transiently inflate the live counter — reserve(k) adds k before
	// checking the cap, so without this guard one doomed oversized request
	// would make concurrent legitimate acquires spuriously hit ErrCapacity
	// (and k is client-controlled in cmd/renamed, so it must also never
	// size an allocation).
	if k > m.namer.Namespace() {
		m.rejected.Add(1)
		return nil, fmt.Errorf("lease: acquire batch of %d exceeds namespace %d: %w",
			k, m.namer.Namespace(), renaming.ErrNamespaceExhausted)
	}
	if max := m.maxLive.Load(); max > 0 && int64(k) > max {
		m.rejected.Add(1)
		return nil, ErrCapacity
	}
	if err := m.reserve(k); err != nil {
		m.rejected.Add(1)
		return nil, err
	}
	names, err := m.namer.AcquireN(ctx, k)
	if err != nil {
		m.live.Add(-int64(k))
		m.rejected.Add(1)
		return nil, fmt.Errorf("lease: acquire batch: %w", err)
	}

	// One owner/metadata record serves all k slots; out carries the
	// table's copy of meta while the observer sees it and gets per-lease
	// copies only on the way out to the caller.
	who := &holder{owner: owner, meta: cloneMeta(meta)}
	expiresAt := m.cfg.Now().Add(m.clampTTL(ttl))
	deadline := m.since(expiresAt)
	firstToken := m.token.Add(uint64(k)) - uint64(k) + 1
	out := make([]Lease, k)
	for i, name := range names {
		out[i] = Lease{
			Name:      name,
			Token:     firstToken + uint64(i),
			Owner:     owner,
			ExpiresAt: expiresAt,
			Meta:      who.meta,
		}
	}
	size := m.stripeSize()

	// Bucket the batch by stripe so each involved stripe is locked exactly
	// once, however many of the k names it received.
	plan := m.planStripes(func(i int) int { return names[i] }, k)
	for s := range m.shards {
		group := plan.group(s)
		if len(group) == 0 {
			continue
		}
		sh := &m.shards[s]
		sh.mu.Lock()
		if m.closed.Load() {
			// Raced with Close or Shutdown. Nothing may stay half-granted:
			// the caller is told ErrClosed, so every lease this batch
			// already inserted into earlier stripes must come back OUT of
			// the table — under Shutdown there is no drain to return it,
			// and leaving it would persist a durable ghost lease whose
			// owner thinks the acquisition failed. Removal is token-
			// guarded: a lease Close's concurrent drain already removed
			// (and whose name it already handed back) is skipped.
			sh.mu.Unlock()
			var removed []int
			for r := 0; r < s; r++ {
				rgroup := plan.group(r)
				if len(rgroup) == 0 {
					continue
				}
				rsh := &m.shards[r]
				rsh.mu.Lock()
				for _, i := range rgroup {
					l := &out[i]
					sl := rsh.lookup(l.Name, m.shardBits)
					if sl == nil || sl.token != l.Token {
						continue // Close's drain got here first
					}
					rsh.remove(sl)
					if m.cfg.Observer != nil {
						m.cfg.Observer.ObserveRelease(l.Name, l.Token)
					}
					removed = append(removed, l.Name)
				}
				rsh.mu.Unlock()
			}
			// Hand back outside the stripe locks — exactly the names WE
			// removed (the token check above keeps us off anything Close's
			// drain already returned).
			m.releaseNames(removed)
			// Everything not yet inserted is still ours outright.
			rest := plan.restFrom(s)
			for _, i := range rest {
				m.releaseName(names[i])
			}
			m.live.Add(-int64(len(removed) + len(rest)))
			m.rejected.Add(1)
			return nil, ErrClosed
		}
		for _, i := range group {
			l := &out[i]
			sh.insert(l.Name, m.shardBits, size, l.Token, deadline, who)
			if m.cfg.Observer != nil {
				m.cfg.Observer.ObserveAcquire(*l)
			}
		}
		sh.mu.Unlock()
	}
	m.acquired.Add(int64(k))
	if who.meta != nil {
		for i := range out {
			out[i].Meta = cloneMeta(who.meta)
		}
	}
	return out, nil
}

// RenewBatch extends every lease in items by ttl (<= 0 means the
// configured default) through one lock visit per involved stripe. The
// returned slice is index-aligned with items; the call-level error is
// non-nil only when nothing was attempted (manager closed, context
// already done, empty batch is a no-op). Cancellation between stripe
// visits stops the walk and marks the remaining items' results with an
// error matching renaming.ErrCancelled — items already visited keep
// their real outcomes, so a session can still trust what it learned.
func (m *Manager) RenewBatch(ctx context.Context, items []RenewItem, ttl time.Duration) ([]RenewResult, error) {
	if !m.enterOp() {
		m.rejected.Add(1)
		return nil, ErrClosed
	}
	defer m.exitOp()
	if err := ctx.Err(); err != nil {
		m.rejected.Add(1)
		return nil, fmt.Errorf("lease: renew batch: %w: %w", renaming.ErrCancelled, err)
	}
	if len(items) == 0 {
		return nil, nil
	}
	results := make([]RenewResult, len(items))
	plan := m.planStripes(func(i int) int { return items[i].Name }, len(items))
	r := m.renewalAt(m.cfg.Now(), ttl)
	var renewed int64
	// failRest stamps err on every item in the not-yet-visited stripes;
	// the abort is one rejection event, matching AcquireBatch's
	// call-level accounting.
	failRest := func(rest []int, err error) {
		for _, i := range rest {
			results[i].Err = err
		}
		m.rejected.Add(1)
	}
	for s := range m.shards {
		group := plan.group(s)
		if len(group) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			failRest(plan.restFrom(s), fmt.Errorf("lease: renew batch: %w: %w", renaming.ErrCancelled, err))
			break
		}
		sh := &m.shards[s]
		sh.mu.Lock()
		if m.closed.Load() {
			sh.mu.Unlock()
			failRest(plan.restFrom(s), ErrClosed)
			break
		}
		sh.touch(plan.groupNames(s), m.shardBits)
		var lapsed []int
		for _, i := range group {
			l, expired, err := m.renewLocked(sh, items[i].Name, items[i].Token, r)
			if err != nil {
				results[i].Err = err
				if expired {
					lapsed = append(lapsed, items[i].Name)
				}
				continue
			}
			results[i].Lease = l
			renewed++
		}
		sh.mu.Unlock()
		// Lapsed leases were dropped under the lock; their names go back
		// to the namer out here so a slow namer.Release never stalls the stripe.
		m.releaseNames(lapsed)
	}
	m.renewed.Add(renewed)
	return results, nil
}

// ReleaseBatch ends every lease in items through one lock visit per
// involved stripe, returning index-aligned per-item outcomes (see
// ReleaseResult). Like RenewBatch it is not all-or-nothing; cancellation
// or a racing Close between stripe visits marks only the unprocessed
// remainder — names already handed back stay handed back.
func (m *Manager) ReleaseBatch(ctx context.Context, items []ReleaseItem) ([]ReleaseResult, error) {
	if !m.enterOp() {
		m.rejected.Add(1)
		return nil, ErrClosed
	}
	defer m.exitOp()
	if err := ctx.Err(); err != nil {
		m.rejected.Add(1)
		return nil, fmt.Errorf("lease: release batch: %w: %w", renaming.ErrCancelled, err)
	}
	if len(items) == 0 {
		return nil, nil
	}
	results := make([]ReleaseResult, len(items))
	plan := m.planStripes(func(i int) int { return items[i].Name }, len(items))
	now := m.since(m.cfg.Now())
	failRest := func(rest []int, err error) {
		for _, i := range rest {
			results[i].Err = err
		}
		m.rejected.Add(1)
	}
	for s := range m.shards {
		group := plan.group(s)
		if len(group) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			failRest(plan.restFrom(s), fmt.Errorf("lease: release batch: %w: %w", renaming.ErrCancelled, err))
			break
		}
		sh := &m.shards[s]
		sh.mu.Lock()
		if m.closed.Load() {
			sh.mu.Unlock()
			failRest(plan.restFrom(s), ErrClosed)
			break
		}
		// handbacks are the names this stripe visit removed from the table;
		// the namer gets them back only after the stripe unlocks. For a
		// successful release (expired == false) the namer's verdict is the
		// item's outcome.
		type handback struct {
			idx     int
			expired bool
		}
		sh.touch(plan.groupNames(s), m.shardBits)
		var handbacks []handback
		for _, i := range group {
			hb, err := m.releaseLocked(sh, items[i].Name, items[i].Token, now)
			results[i].Err = err
			if hb {
				handbacks = append(handbacks, handback{idx: i, expired: err != nil})
			}
		}
		sh.mu.Unlock()
		for _, hb := range handbacks {
			rerr := m.releaseName(items[hb.idx].Name)
			if !hb.expired && rerr != nil {
				results[hb.idx].Err = rerr
			}
		}
	}
	return results, nil
}
