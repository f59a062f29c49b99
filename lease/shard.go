package lease

import (
	"math"
	"sync"
	"time"
)

// holder is the part of a lease that never changes after the grant: who
// took it and with what metadata. One record is allocated per grant call
// and shared by every slot that call filled (all k leases of an
// AcquireBatch), so a slot stays three words. Records are immutable once
// published in a slot.
type holder struct {
	owner string
	meta  map[string]string
}

// slot is one entry of a stripe's dense lease table. The name is not
// stored: slot i of stripe s holds name i<<shardBits | s. who == nil marks
// the slot free — occupancy does not depend on the token, so a restored
// lease carrying token 0 cannot read as free.
type slot struct {
	token uint64
	// deadline is the lease's expiry in nanoseconds on the manager's own
	// clock (Manager.since); the lease is lapsed once now's reading is
	// strictly greater.
	deadline int64
	who      *holder
}

// shard is one lock stripe of the manager's lease table. Names route to
// shards by name & (len(shards)-1), so every operation on a given name
// serializes on exactly one shard mutex while operations on other names
// proceed in parallel. The struct is padded to a cache line so adjacent
// shards' mutexes don't false-share under contention.
type shard struct {
	mu sync.Mutex
	// slots is the stripe's share of the namespace, indexed by
	// name >> shardBits. It is sized once, on the first insert, to the
	// stripe's share of the namer's Namespace() and re-allocated only when
	// a granted or adopted name lies beyond it (the namespace grew under
	// Resize). Lookups never grow it.
	slots []slot
	// n counts occupied slots.
	n int
	// earliest is a lower bound on every occupied slot's deadline: an
	// insert or renewal with an earlier deadline lowers it, only a scan
	// raises it. While now <= earliest nothing in the stripe can have
	// lapsed, which keeps idle sweeps and Metrics scrapes O(1).
	earliest int64
	// last is the record of the stripe's most recent meta-less restored
	// lease, reused while Restore keeps seeing the same owner so a boot
	// does not allocate a record per lease.
	last *holder

	_ [8]byte // pad to 64 bytes: mutex(8) + slice header(24) + 3 words(24)
}

// lookup returns name's occupied slot, or nil when name holds no lease —
// including every name that is negative or beyond the table, which arrive
// unchecked off both wires. Callers hold sh.mu and name routes to sh.
//
//renamed:noalloc
func (sh *shard) lookup(name int, bits uint) *slot {
	// A negative name shifts to a huge unsigned index: one bounds test.
	i := uint(name) >> bits
	if i >= uint(len(sh.slots)) {
		return nil
	}
	s := &sh.slots[i]
	if s.who == nil {
		return nil
	}
	return s
}

// touch reads the first word of every slot names routes to and returns
// their sum. A batch's slots are scattered over a table far larger than
// the cache; loading them back to back lets those misses overlap instead
// of queueing one behind each item's bookkeeping in the apply loop that
// follows. The sum exists so the loads cannot be optimized away, as does
// the noinline. Callers hold sh.mu.
//
//renamed:noalloc
//go:noinline
func (sh *shard) touch(names []int, bits uint) (sum uint64) {
	for _, name := range names {
		if i := uint(name) >> bits; i < uint(len(sh.slots)) {
			sum += sh.slots[i].token
		}
	}
	return sum
}

// holderFor returns the record to store for a restored lease of owner's;
// meta is already the table's own copy. Callers hold sh.mu.
func (sh *shard) holderFor(owner string, meta map[string]string) *holder {
	if meta != nil {
		return &holder{owner: owner, meta: meta}
	}
	if sh.last == nil || sh.last.owner != owner {
		sh.last = &holder{owner: owner}
	}
	return sh.last
}

// insert occupies name's slot. size is the stripe's share of the namer's
// current namespace, read by the caller before it took sh.mu; the table
// is allocated (or, after the namespace grew, re-allocated with one copy)
// at exactly that length, never doubled. Callers hold sh.mu, name routes
// to sh and its slot is free.
func (sh *shard) insert(name int, bits uint, size int, token uint64, deadline int64, who *holder) {
	i := name >> bits
	if i >= len(sh.slots) {
		if size <= i {
			size = i + 1 // granted under a namespace a racing shrink has since narrowed
		}
		grown := make([]slot, size)
		copy(grown, sh.slots)
		sh.slots = grown
	}
	sh.slots[i] = slot{token: token, deadline: deadline, who: who}
	if sh.n == 0 || deadline < sh.earliest {
		sh.earliest = deadline
	}
	sh.n++
}

// remove frees an occupied slot. Callers hold sh.mu.
func (sh *shard) remove(s *slot) {
	*s = slot{}
	sh.n--
}

// liveLocked counts the stripe's unexpired leases: the occupied count
// while the watermark holds, a scan of the slots once the clock is past
// it. Callers hold sh.mu.
func (sh *shard) liveLocked(now int64) int {
	if sh.n == 0 || now <= sh.earliest {
		return sh.n
	}
	live := 0
	for i := range sh.slots {
		if s := &sh.slots[i]; s.who != nil && now <= s.deadline {
			live++
		}
	}
	return live
}

// sweepLocked drops the shard's expired leases, appending each dropped
// name to expired and returning the slice. While now has not passed the
// stripe's earliest-deadline watermark nothing can be due and the sweep
// is O(1); see scanLocked for the due case. The namer hand-back is
// deliberately NOT done here: namer.Release is outside this package's
// control and can be arbitrarily slow, and one sweep used to hold the
// stripe mutex across O(expired) such calls, stalling every
// grant, renewal and Get routed to the stripe. Callers hold sh.mu and must
// pass the returned names to m.releaseNames AFTER unlocking.
//
//renamed:noalloc
func (m *Manager) sweepLocked(sh *shard, stripe int, now int64, expired []int) []int {
	if sh.n == 0 || now <= sh.earliest {
		return expired
	}
	return m.scanLocked(sh, stripe, now, expired)
}

// scanLocked is the due half of sweepLocked: one sequential pass over
// the stripe's slots, O(table/shards) whatever the number due, that
// expires every lapsed lease — in name order, not deadline order — and
// resets earliest to the survivors' true minimum. The watermark only
// falls behind when its lease was renewed, released or expired, so a
// full pass happens at most once per advance of the minimum live
// deadline.
func (m *Manager) scanLocked(sh *shard, stripe int, now int64, expired []int) []int {
	earliest := int64(math.MaxInt64)
	for i := range sh.slots {
		s := &sh.slots[i]
		if s.who == nil {
			continue
		}
		if now > s.deadline {
			name := m.nameAt(i, stripe)
			m.expireLocked(sh, s, name)
			expired = append(expired, name)
			continue
		}
		if s.deadline < earliest {
			earliest = s.deadline
		}
	}
	sh.earliest = earliest
	return expired
}

// expireLocked drops name's lapsed lease from the table and settles the
// counters and observer. It does NOT hand the name back to the namer —
// the caller must m.releaseName(name) after unlocking the stripe, so a
// slow namer.Release (or a synchronous journal fsync) never runs under
// sh.mu. Callers hold sh.mu and s is name's occupied slot in sh.
func (m *Manager) expireLocked(sh *shard, s *slot, name int) {
	token := s.token
	sh.remove(s)
	m.live.Add(-1)
	m.expired.Add(1)
	if m.cfg.Observer != nil {
		m.cfg.Observer.ObserveExpire(name, token)
	}
}

// releaseNames hands a batch of reclaimed names back to the namer.
// Callers must NOT hold any stripe lock; failures are counted in
// Metrics.ReclaimFailed by releaseName.
func (m *Manager) releaseNames(names []int) {
	for _, name := range names {
		m.releaseName(name)
	}
}

// releaseName hands a name back to the namer, counting failures: over a
// one-shot namer (whose Release always errors) the slot would otherwise
// leak invisibly on every reclaim.
func (m *Manager) releaseName(name int) error {
	err := m.namer.Release(name)
	if err != nil {
		m.reclaimFailed.Add(1)
	}
	return err
}

// since converts an instant to the table's deadline scale: nanoseconds
// since the manager's epoch, the one clock reading New took. Against a
// clock that supplies monotonic readings the difference is monotonic; it
// is exact under an injected clock.
func (m *Manager) since(t time.Time) int64 { return int64(t.Sub(m.epoch)) }

// nextPow2 returns the smallest power of two >= n (and >= 1), so shard
// routing can be a mask instead of a modulo.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
