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
// the typed refusals (ErrUnknownName, ErrWrongToken, ErrExpired — or an
// error matching renaming.ErrCancelled for items a mid-batch cancellation
// left unprocessed).
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
// was removed but whose name the namer refused to take back carries that
// namer error.
type ReleaseResult struct {
	Err error
}

// stripePlan groups a batch's items by the lock stripe their name routes
// to, so the batch walk locks each involved stripe exactly once — the one
// bucketing mechanism for AcquireBatch, RenewBatch and ReleaseBatch. Built
// with a counting sort into flat slices carved from one buffer of
// planLen(n) ints, so no per-stripe map or slice-of-slices is ever made.
// Stripes are visited in index order; items keep their request order
// within a stripe.
type stripePlan struct {
	idxs   []int // item indices, grouped by stripe
	names  []int // names[j] is the name of item idxs[j]
	starts []int // starts[s]..starts[s+1] is stripe s's group in idxs and names
}

// planScratch is the size, in ints, of the on-stack array every batch call
// builds its stripe plan in: planLen(n) fits for every batch up to
// (planScratch-1-shards)/2 items, 62 on 2 stripes and 31 on 64. A renewal
// storm runs the plan on every heartbeat and churn on every acquire and
// release, so the common batch must not reach the heap for it.
const planScratch = 128

// planLen is the number of ints a stripe plan of n items needs.
func (m *Manager) planLen(n int) int { return len(m.shards) + 1 + 2*n }

// group returns the item indices routed to stripe s.
func (p *stripePlan) group(s int) []int { return p.idxs[p.starts[s]:p.starts[s+1]] }

// groupNames returns the names routed to stripe s, aligned with group(s).
func (p *stripePlan) groupNames(s int) []int { return p.names[p.starts[s]:p.starts[s+1]] }

// restFrom returns all item indices in stripe s and later — the
// unprocessed remainder when a batch walk aborts at stripe s.
func (p *stripePlan) restFrom(s int) []int { return p.idxs[p.starts[s]:] }

// planStripes builds the stripe plan for n items whose i-th name is
// name(i). The plan is carved from scratch when planLen(n) fits its
// capacity and from one heap buffer otherwise; a nil scratch always takes
// the heap.
func (m *Manager) planStripes(scratch []int, name func(i int) int, n int) stripePlan {
	shards := len(m.shards)
	need := m.planLen(n)
	var buf []int
	if cap(scratch) >= need {
		buf = scratch[:need]
	} else {
		buf = make([]int, need)
	}
	starts, buf := buf[:shards+1], buf[shards+1:]
	idxs, names := buf[:n], buf[n:]
	// Count each stripe's items, turn the counts into end offsets, then
	// place the items back to front, moving each stripe's offset down to
	// its start: a stable counting sort with no cursor array.
	clear(starts)
	for i := 0; i < n; i++ {
		starts[name(i)&m.mask]++
	}
	for s := 1; s < shards; s++ {
		starts[s] += starts[s-1]
	}
	starts[shards] = n
	for i := n - 1; i >= 0; i-- {
		nm := name(i)
		s := nm & m.mask
		starts[s]--
		j := starts[s]
		idxs[j], names[j] = i, nm
	}
	return stripePlan{idxs: idxs, names: names, starts: starts}
}

// AcquireBatch grants k leases in one call: one capacity reservation of k
// units, one batched namer acquisition (renaming.AcquireN, which amortizes
// its PRNG-stream setup across the batch), and one lock-stripe visit per
// involved stripe instead of one per lease. Either all k leases are
// granted or none: on exhaustion or cancellation every name already taken
// is handed back and the reservation undone. A batch refused at entry
// (ErrClosed) reserved nothing, and one past entry completes even if
// Shutdown starts meanwhile: Shutdown waits for it. Each lease carries its
// own fencing token; ttl and meta apply to all of them.
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
	var scratch [planScratch]int
	plan := m.planStripes(scratch[:], func(i int) int { return names[i] }, k)
	for s := range m.shards {
		group := plan.group(s)
		if len(group) == 0 {
			continue
		}
		sh := &m.shards[s]
		sh.mu.Lock()
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
// The results are a fresh slice, the one allocation a call makes while
// its stripe plan fits on the stack (see RenewBatchInto).
func (m *Manager) RenewBatch(ctx context.Context, items []RenewItem, ttl time.Duration) ([]RenewResult, error) {
	return m.RenewBatchInto(ctx, items, ttl, nil)
}

// RenewBatchInto is RenewBatch writing its results into dst: when dst's
// capacity holds len(items) results the returned slice is
// dst[:len(items)], its old contents overwritten; otherwise dst is left
// alone and the results are a fresh slice. A call whose dst is large
// enough and whose stripe plan fits the on-stack scratch (len(items) up
// to (128-1-stripes)/2) allocates nothing when its items renew leases
// without metadata (a renewed lease carries its own copy of the meta),
// which is what keeps a heartbeat storm off the garbage collector. A
// call-level refusal returns dst[:0].
func (m *Manager) RenewBatchInto(ctx context.Context, items []RenewItem, ttl time.Duration, dst []RenewResult) ([]RenewResult, error) {
	if !m.enterOp() {
		m.rejected.Add(1)
		return dst[:0], ErrClosed
	}
	defer m.exitOp()
	if err := ctx.Err(); err != nil {
		m.rejected.Add(1)
		return dst[:0], fmt.Errorf("lease: renew batch: %w: %w", renaming.ErrCancelled, err)
	}
	if len(items) == 0 {
		return dst[:0], nil
	}
	var results []RenewResult
	if cap(dst) >= len(items) {
		results = dst[:len(items)]
		clear(results)
	} else {
		results = make([]RenewResult, len(items))
	}
	var scratch [planScratch]int
	plan := m.planStripes(scratch[:], func(i int) int { return items[i].Name }, len(items))
	r := m.renewalAt(m.cfg.Now(), ttl)
	var renewed int64
	for s := range m.shards {
		group := plan.group(s)
		if len(group) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			// The abort is one rejection event, matching AcquireBatch's
			// call-level accounting.
			err = fmt.Errorf("lease: renew batch: %w: %w", renaming.ErrCancelled, err)
			for _, i := range plan.restFrom(s) {
				results[i].Err = err
			}
			m.rejected.Add(1)
			break
		}
		sh := &m.shards[s]
		sh.mu.Lock()
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
// between stripe visits marks only the unprocessed remainder — names
// already handed back stay handed back.
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
	var scratch [planScratch]int
	plan := m.planStripes(scratch[:], func(i int) int { return items[i].Name }, len(items))
	now := m.since(m.cfg.Now())
	for s := range m.shards {
		group := plan.group(s)
		if len(group) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			err = fmt.Errorf("lease: release batch: %w: %w", renaming.ErrCancelled, err)
			for _, i := range plan.restFrom(s) {
				results[i].Err = err
			}
			m.rejected.Add(1)
			break
		}
		sh := &m.shards[s]
		sh.mu.Lock()
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
