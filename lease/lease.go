// Package lease turns a one-shot name assignment (renaming.Namer) into a
// production-grade identity lease service: every acquired name carries a
// TTL, a fencing token, an owner string and arbitrary metadata. Holders
// keep a name alive by renewing before the TTL elapses; names whose leases
// expire are reclaimed — lazily by the renewal or release that finds them
// lapsed and eagerly by a background sweeper — and returned to the namer's
// pool for re-assignment.
//
// This is the exclusive-assignment semantics of Chlebus and Kowalski,
// "Asynchronous Exclusive Selection": at every instant each name has at
// most one live holder, and a holder that stalls past its TTL loses the
// name without any action on its part. Fencing tokens make the loss safe
// to detect: a stale holder's renewal or release fails with ErrWrongToken
// because the token was minted for a lease that no longer exists.
//
// Internally the manager is sharded (the lock-striping idiom of Alistarh,
// Kopinsky, Matveev and Shavit's LevelArray paper, ICDCS 2014): the lease
// table is split into nextPow2(GOMAXPROCS) stripes, each with its own
// mutex, and names route to stripes by low bits. The MaxLive capacity
// check is a lock-free atomic reservation, so bookkeeping scales with
// cores and the namer stays the hot path.
//
// Each stripe keeps its leases in a dense slot table indexed by
// name >> shardBits — loose renaming hands out names from a namespace of
// (1+ε)n precisely so callers can index flat arrays by name, and the lease
// table is such a caller. A slot is three words (token, deadline, a
// pointer to the grant's owner/metadata record); the table is allocated
// once at the stripe's share of the namer's Namespace() and re-allocated
// only when a Resize grew the namespace past it, so its footprint is the
// same order as the namer's own TAS array. (A namer whose namespace is
// far larger than its capacity pays for that here too.) Lookups by a name outside the table are ErrUnknownName and
// never allocate.
//
// Expiry needs no heap: every slot carries its own deadline and each
// stripe keeps a watermark, a lower bound on its occupied slots'
// deadlines. A sweep (or a Metrics scrape) that finds the clock at or
// before the watermark is O(1) per stripe. One that finds it past the
// watermark scans the stripe's slots sequentially — O(table/shards)
// regardless of how many leases are due — reclaims what lapsed, in name
// order rather than deadline order, and resets the watermark to the
// survivors' true minimum, so a scan runs at most once per advance of the
// minimum live deadline. Renewals write the slot and, at most, lower the
// watermark.
//
// There is one request shape, the batch, and a single lease is a batch of
// one: AcquireBatch grants k leases through one capacity reservation, one
// batched namer call and one lock visit per involved stripe — all-or-
// nothing, and abandoned with the reservation and every won TAS slot handed
// back when the context ends. RenewBatch and ReleaseBatch bucket their items
// by stripe the same way and report a typed outcome per item (see batch.go).
//
// A manager stops one way, Shutdown: operations are refused at entry from
// then on, every batch already past entry completes before Shutdown
// returns, and the table is kept for the next process to Restore.
//
// The package layers on any Namer; pair it with renaming.NewLevelArray to
// get constant expected probes under sustained lease churn.
package lease

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	renaming "repro"
)

// Errors returned by Manager operations.
var (
	// ErrUnknownName is returned for operations on a name with no live lease.
	ErrUnknownName = errors.New("lease: no live lease for name")
	// ErrWrongToken is returned when the caller's fencing token does not
	// match the live lease — the caller is a stale holder.
	ErrWrongToken = errors.New("lease: fencing token mismatch")
	// ErrExpired is the outcome of a renewal or release that arrived after
	// the lease's TTL elapsed; the name has been (or is about to be) reclaimed.
	ErrExpired = errors.New("lease: lease expired before renewal")
	// ErrClosed is returned by operations on a closed Manager.
	ErrClosed = errors.New("lease: manager closed")
	// ErrCapacity is returned by AcquireBatch when the batch does not fit
	// under MaxLive. Distinct from namespace exhaustion: the namer still has
	// slots, but granting more would void its probe guarantees. The grant
	// path reclaims expired leases before giving up, so ErrCapacity means the capacity
	// is genuinely full of live holders (or of in-flight acquisitions).
	ErrCapacity = errors.New("lease: live-lease capacity reached")
)

// Lease is a snapshot of one live lease. Copies are handed out; mutating a
// returned Lease (or its Meta map) does not affect the manager's state.
type Lease struct {
	// Name is the integer name held, in [0, Namespace()).
	Name int
	// Token is the fencing token minted at acquisition, unique across the
	// manager's lifetime. Renewing and releasing require it.
	Token uint64
	// Owner is the caller-supplied identity that acquired the lease.
	Owner string
	// ExpiresAt is the instant the lease lapses unless renewed.
	ExpiresAt time.Time
	// Meta is the caller-supplied metadata attached at acquisition.
	Meta map[string]string
}

// cloneMeta copies a metadata map; nil stays nil.
func cloneMeta(meta map[string]string) map[string]string {
	if meta == nil {
		return nil
	}
	m := make(map[string]string, len(meta))
	for k, v := range meta {
		m[k] = v
	}
	return m
}

// Config tunes a Manager.
type Config struct {
	// TTL is the lease duration grants and renewals carry when the
	// caller does not request one; requested durations are capped at
	// 10×TTL. Defaults to 30 seconds.
	TTL time.Duration
	// SweepInterval is the period of the background reclamation sweep.
	// Defaults to TTL/4. Set negative to disable the sweeper entirely
	// (expired leases are then reclaimed only lazily, on access, or by
	// explicit SweepOnce calls — how the tests drive reclamation
	// deterministically).
	SweepInterval time.Duration
	// MaxLive, if positive, caps the number of concurrently live leases.
	// Long-lived namers guarantee their probe bounds only up to a
	// capacity; set MaxLive to that capacity to enforce it (AcquireBatch then
	// fails with ErrCapacity instead of degrading). 0 means uncapped —
	// the namer's namespace is the only limit. This is the INITIAL cap;
	// SetMaxLive changes it at runtime.
	MaxLive int
	// Shards overrides the number of lock stripes the lease table is
	// split into. 0 means nextPow2(GOMAXPROCS); other values are rounded
	// up to a power of two. Mostly a benchmarking knob: Shards: 1
	// reproduces the pre-sharding single-mutex manager.
	Shards int
	// Observer, if non-nil, receives every lease-table transition (see
	// Observer). The persist.Store journal implements it for crash
	// recovery; nil costs one predictable branch per operation.
	Observer Observer
	// Now is the clock; defaults to time.Now. Injectable for tests.
	Now func() time.Time
}

// Observer receives every state transition of the lease table. The four
// per-item callbacks are invoked synchronously under the owning stripe's
// lock, so the event order per name exactly matches table order: an
// acquire is always observed before any renewal, release or expiry of the
// lease it created, and with a write-ahead implementation a grant is
// durable before the caller sees it. Implementations must therefore be
// fast, must tolerate concurrent calls (different stripes journal in
// parallel), and must not call back into the Manager from them. The table
// itself is handed over once, by ObserveTable, after Restore. The persist
// package's Store is the intended implementation.
type Observer interface {
	// ObserveAcquire fires after a lease is inserted into the table. The
	// lease and its Meta map must be treated as read-only.
	ObserveAcquire(l Lease)
	// ObserveRenew fires after a successful renewal extends name's lease
	// (held with token) to expiresAt.
	ObserveRenew(name int, token uint64, expiresAt time.Time)
	// ObserveRelease fires after a voluntary release removes a lease.
	// Shutdown releases nothing.
	ObserveRelease(name int, token uint64)
	// ObserveExpire fires after an expired lease is reclaimed (by a sweep,
	// or by the renewal or release that found it lapsed), and from Restore
	// for leases that lapsed while the service was down.
	ObserveExpire(name int, token uint64)
	// ObserveTable hands the observer the live table, once, as the last
	// act of a successful Restore and outside every stripe lock. From then
	// on t holds every lease the callbacks above have described and every
	// lease Restore re-inserted (which are never re-observed), so an
	// observer that snapshots can read them from t instead of keeping a
	// copy of its own. A manager that never runs Restore never calls it.
	ObserveTable(t Table)
}

// Table is read access to the occupied slots of a lease table.
type Table interface {
	// Walk yields every occupied slot once, in chunks, whether or not its
	// lease has lapsed. The walk is fuzzy: each chunk is read under one
	// stripe lock and yielded after that lock is dropped, so a chunk is
	// exact as of its own read and the table keeps moving between chunks.
	// The chunk and the Meta maps in it are only valid, and read-only,
	// until yield returns. A non-nil error from yield stops the walk and
	// is returned. Walk must not be called from an Observer callback.
	Walk(yield func(chunk []Lease) error) error
	// Occupied is the number of occupied slots.
	Occupied() int
}

func (c *Config) applyDefaults() {
	if c.TTL <= 0 {
		c.TTL = 30 * time.Second
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.TTL / 4
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	c.Shards = nextPow2(c.Shards)
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Metrics is a snapshot of the manager's operation counters.
type Metrics struct {
	Acquired int64 // leases granted
	Renewed  int64 // successful renewals
	Released int64 // explicit releases
	Expired  int64 // leases reclaimed after TTL lapse
	// Rejected counts refused operations: capacity/namespace exhaustion,
	// wrong token, expiry, unknown name, cancellation — and ErrClosed,
	// which every other refusal already counted but the early shutdown
	// returns used to skip, under-reporting rejections during drain. A
	// refused batch call counts once, plus once per item the table itself
	// turned away.
	Rejected int64
	// ReclaimFailed counts names the manager tried to hand back after a
	// release or an expiry and the namer refused (namer.Release errored);
	// Shutdown hands nothing back. A refused name is lost to the namer
	// for good; a nonzero value here is the only trace of that leak.
	ReclaimFailed int64
	// CapacitySweeps counts capacity-pressure sweeps actually executed on
	// the reserve path, and CapacitySweepJoins counts reservations that
	// joined an in-flight sweep instead of running their own — the
	// single-flight coalescing ratio under a rejection storm. Joins
	// rising much faster than sweeps means the service is pinned at
	// MaxLive.
	CapacitySweeps     int64
	CapacitySweepJoins int64
	// Reserved is the raw capacity counter: live leases plus in-flight
	// AcquireBatch reservations that have not yet materialized as leases.
	// Reserved - Live is the instantaneous acquisition in-flight depth
	// (plus any expired-but-unreclaimed leases still holding capacity).
	Reserved int64
	Live     int // unexpired leases currently held
	// MaxLive is the instantaneous live-lease cap (0 = uncapped) and
	// Resizes counts successful SetMaxLive calls. After a shrink below
	// the live population, Live > MaxLive is expected — existing holders
	// ride to expiry while new acquires are refused.
	MaxLive int64
	Resizes int64
}

// Manager grants, renews, expires and reclaims leases over a Namer.
// All methods are safe for concurrent use.
type Manager struct {
	namer renaming.Namer
	cfg   Config

	// shards is the striped lease table; len(shards) is 1<<shardBits,
	// name & mask routes a name to its stripe and name >> shardBits to
	// its slot there.
	shards    []shard
	mask      int
	shardBits uint

	// epoch is the origin of the table's deadline scale (see since).
	epoch time.Time

	closed atomic.Bool
	// gate is read-held by every operation enterOp admits; Shutdown takes
	// the write side for good, so no straggler moves the table, and no
	// record chases a closed store, after it returns.
	gate sync.RWMutex

	// Single-flight state for the capacity-pressure sweep in reserve: at
	// most one reserve-path sweepAll runs at a time, concurrent losers
	// join it. capSweepsRun/capSweepJoined instrument the coalescing for
	// the regression test that pins it.
	capSweepMu     sync.Mutex
	capSweepActive *capSweepCall
	capSweepsRun   atomic.Int64
	capSweepJoined atomic.Int64

	// live counts held names plus in-flight AcquireBatch reservations.
	// A grant reserves capacity here *before* probing the namer, so
	// MaxLive is enforced without any lock — and without the
	// grant-then-recheck race the single-mutex design had, where an
	// acquire could fail with ErrCapacity while expired leases sat
	// unreclaimed.
	live atomic.Int64
	// maxLive is the runtime live-lease cap (0 = uncapped), seeded from
	// cfg.MaxLive and mutable via SetMaxLive. An atomic, not a field
	// read, so the lock-free reservation in reserve stays lock-free
	// while the cap changes underneath it. resizes counts the changes.
	maxLive atomic.Int64
	resizes atomic.Int64

	token atomic.Uint64

	acquired      atomic.Int64
	renewed       atomic.Int64
	released      atomic.Int64
	expired       atomic.Int64
	rejected      atomic.Int64
	reclaimFailed atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup
}

// New builds a Manager over namer and starts its background sweeper
// (unless cfg.SweepInterval < 0). Shutdown stops the sweeper.
func New(namer renaming.Namer, cfg Config) (*Manager, error) {
	if namer == nil {
		return nil, errors.New("lease: nil namer")
	}
	cfg.applyDefaults()
	m := &Manager{
		namer:  namer,
		cfg:    cfg,
		shards: make([]shard, cfg.Shards),
		mask:   cfg.Shards - 1,
		epoch:  cfg.Now(),
		done:   make(chan struct{}),
	}
	for 1<<m.shardBits < cfg.Shards {
		m.shardBits++
	}
	m.maxLive.Store(int64(cfg.MaxLive))
	if cfg.SweepInterval > 0 {
		m.wg.Add(1)
		go m.sweepLoop()
	}
	return m, nil
}

func (m *Manager) sweepLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
			m.SweepOnce()
		}
	}
}

// shard returns the stripe name routes to.
func (m *Manager) shard(name int) *shard { return &m.shards[name&m.mask] }

// nameAt is the name slot i of stripe holds: slots do not store it.
func (m *Manager) nameAt(i, stripe int) int { return i<<m.shardBits | stripe }

// stripeSize is the slot-table length that covers one stripe's share of
// the namer's current namespace. It calls into the namer, so grant paths
// read it before taking a stripe lock.
func (m *Manager) stripeSize() int {
	return (m.namer.Namespace() + len(m.shards) - 1) >> m.shardBits
}

// clampTTL resolves a caller-requested duration: <= 0 is the default TTL,
// and nothing exceeds 10×TTL.
func (m *Manager) clampTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return m.cfg.TTL
	}
	return min(ttl, 10*m.cfg.TTL)
}

// Namer exposes the underlying namer for process-level concerns the
// manager does not mediate — capacity inspection and online resize
// (renaming.ResizableNamer). Data-path namer calls stay behind the
// manager; going around it for acquire/release would corrupt the
// live accounting.
func (m *Manager) Namer() renaming.Namer { return m.namer }

// renewal is one clock reading resolved against a requested TTL: what a
// renewal judged at that instant compares with and writes. RenewBatch
// resolves it once for the whole batch.
type renewal struct {
	now       int64     // the instant, on the table's deadline scale
	deadline  int64     // the extended deadline, same scale
	expiresAt time.Time // the extended deadline as handed out
}

func (m *Manager) renewalAt(now time.Time, ttl time.Duration) renewal {
	d := m.clampTTL(ttl)
	n := m.since(now)
	return renewal{now: n, deadline: n + int64(d), expiresAt: now.Add(d)}
}

// renewLocked applies one item of RenewBatch's walk against sh. Refusals
// settle the rejected counter here; successes leave the renewed counter to
// the caller, which settles it once per batch. The
// returned lease carries its own copy of the metadata. When the lease
// lapsed, it is dropped from the table and expired reports true: the
// caller MUST hand name back to the namer (m.releaseName) after unlocking
// the stripe. Callers hold sh.mu and name routes to sh.
func (m *Manager) renewLocked(sh *shard, name int, token uint64, r renewal) (l Lease, expired bool, err error) {
	s := sh.lookup(name, m.shardBits)
	if s == nil {
		m.rejected.Add(1)
		return Lease{}, false, ErrUnknownName
	}
	if s.token != token {
		m.rejected.Add(1)
		return Lease{}, false, ErrWrongToken
	}
	if r.now > s.deadline {
		m.expireLocked(sh, s, name)
		m.rejected.Add(1)
		return Lease{}, true, ErrExpired
	}
	s.deadline = r.deadline
	if r.deadline < sh.earliest {
		// A shorter TTL than the one it replaces moves a deadline earlier.
		sh.earliest = r.deadline
	}
	if m.cfg.Observer != nil {
		m.cfg.Observer.ObserveRenew(name, token, r.expiresAt)
	}
	return Lease{Name: name, Token: token, Owner: s.who.owner, ExpiresAt: r.expiresAt, Meta: cloneMeta(s.who.meta)}, false, nil
}

// releaseLocked applies one item of ReleaseBatch's walk against sh.
// Refusals settle the rejected counter. The
// namer hand-back itself happens OUTSIDE the stripe lock: when handback
// reports true the caller must invoke m.releaseName(name) after
// unlocking — with err == nil that hand-back is the successful release,
// whose namer error still propagates to the caller
// after counting in ReclaimFailed; with err == ErrExpired it is the
// reclaim of a lapsed lease and its error is only counted. Callers hold
// sh.mu and name routes to sh.
func (m *Manager) releaseLocked(sh *shard, name int, token uint64, now int64) (handback bool, err error) {
	s := sh.lookup(name, m.shardBits)
	if s == nil {
		m.rejected.Add(1)
		return false, ErrUnknownName
	}
	if s.token != token {
		m.rejected.Add(1)
		return false, ErrWrongToken
	}
	if now > s.deadline {
		m.expireLocked(sh, s, name)
		m.rejected.Add(1)
		return true, ErrExpired
	}
	sh.remove(s)
	if m.cfg.Observer != nil {
		m.cfg.Observer.ObserveRelease(name, token)
	}
	m.live.Add(-1)
	m.released.Add(1)
	return true, nil
}

// Leases snapshots all live (unexpired) leases, ordered by name, each
// with its own copy of the metadata: Walk with the lapsed leases left
// out. The snapshot is per-chunk consistent, not global: a stripe is
// locked for walkSpan slots at a time, so a holder releasing one name and
// acquiring another while the snapshot runs can appear under both or
// neither.
func (m *Manager) Leases() []Lease {
	var out []Lease
	// Walk fails only with yield's error, and this yield has none.
	_ = m.Walk(func(chunk []Lease) error {
		now := m.cfg.Now()
		for _, l := range chunk {
			if !l.ExpiresAt.Before(now) {
				l.Meta = cloneMeta(l.Meta)
				out = append(out, l)
			}
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// walkSpan is how many slots Walk reads per hold of a stripe lock: enough
// to amortize the lock, few enough that an operation routed to the stripe
// waits microseconds behind it.
const walkSpan = 4096

// Walk implements Table over the manager's slot tables. It still walks
// after Shutdown, which keeps the table. ExpiresAt is rebuilt from the
// time each lease has left relative to the walk's clock reading, so a step
// of the wall clock since the grant never accumulates into reported
// deadlines.
func (m *Manager) Walk(yield func(chunk []Lease) error) error {
	var chunk []Lease
	for stripe := range m.shards {
		sh := &m.shards[stripe]
		for lo, n := 0, 0; lo == 0 || lo < n; lo += walkSpan {
			chunk = chunk[:0]
			sh.mu.Lock()
			// Re-read every hold: a Resize grow re-allocates the table
			// between two of them, and what it copied stays at its index.
			n = len(sh.slots)
			now := m.cfg.Now()
			nowD := m.since(now)
			for i := lo; i < min(lo+walkSpan, n); i++ {
				if s := &sh.slots[i]; s.who != nil {
					chunk = append(chunk, Lease{
						Name:      m.nameAt(i, stripe),
						Token:     s.token,
						Owner:     s.who.owner,
						ExpiresAt: now.Add(time.Duration(s.deadline - nowD)),
						Meta:      s.who.meta,
					})
				}
			}
			sh.mu.Unlock()
			if len(chunk) == 0 {
				continue
			}
			if err := yield(chunk); err != nil {
				return err
			}
		}
	}
	return nil
}

// Occupied implements Table: occupied slots, lapsed leases included.
func (m *Manager) Occupied() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Metrics returns a snapshot of the operation counters. Live excludes
// leases that have expired but not yet been reclaimed, matching Leases(),
// so dashboards don't show phantom holders when the sweeper is off. The
// count is per-shard consistent only: under concurrent churn
// it can transiently read above MaxLive (a holder's old and new names
// both counted), so don't alert on Live <= capacity as a hard invariant.
// Computing Live is O(1) per stripe while the clock has not passed the
// stripe's earliest deadline — no lease there can have lapsed, so its
// occupied count is its live count — and a scan of the stripe's slots
// otherwise (one stripe locked at a time, never the whole table).
func (m *Manager) Metrics() Metrics {
	now := m.since(m.cfg.Now())
	live := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		live += sh.liveLocked(now)
		sh.mu.Unlock()
	}
	return Metrics{
		Acquired:           m.acquired.Load(),
		Renewed:            m.renewed.Load(),
		Released:           m.released.Load(),
		Expired:            m.expired.Load(),
		Rejected:           m.rejected.Load(),
		ReclaimFailed:      m.reclaimFailed.Load(),
		CapacitySweeps:     m.capSweepsRun.Load(),
		CapacitySweepJoins: m.capSweepJoined.Load(),
		Reserved:           m.live.Load(),
		Live:               live,
		MaxLive:            m.maxLive.Load(),
		Resizes:            m.resizes.Load(),
	}
}

// Namespace exposes the underlying namer's namespace bound.
func (m *Manager) Namespace() int { return m.namer.Namespace() }
