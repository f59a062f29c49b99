// Package levelarray implements the LevelArray long-lived loose-renaming
// algorithm of Alistarh, Kopinsky, Matveev and Shavit, "The LevelArray: A
// Fast, Practical Long-Lived Renaming Algorithm" (ICDCS 2014,
// arXiv:1405.5461), adapted to this repository's TAS/Env substrate.
//
// The one-shot ReBatching algorithms of internal/core place their batches so
// that *each process acquires once*; their analysis collapses under churn,
// where released slots reopen in already-drained batches. The LevelArray is
// built for the long-lived regime instead. The namespace is split into
// geometrically shrinking levels
//
//	size(i) = ceil((1+γ)·N / 2^i),  i = 0, 1, ..., floor(log2 N)
//
// for capacity N (maximum concurrently held names) and per-level slack
// γ > 0. A thread probes t uniformly random slots in level 0, then level 1,
// and so on, taking the first test-and-set it wins; if every level fails it
// falls back to a linear scan of the whole array. Releasing a name resets
// its slot (the driver's TryReset), after which the slot is immediately
// re-acquirable — there is no per-level occupancy bookkeeping to repair,
// which is what makes release-and-reacquire safe.
//
// Why the levels stay useful under churn: with at most N names held, level 0
// (size (1+γ)N) is at worst 1/(1+γ) full at every instant, so each level-0
// probe wins with probability at least γ/(1+γ) — a coin flip at γ = 1 —
// regardless of how many acquire/release cycles preceded it. Deeper levels
// only see the exponentially small fraction of threads whose level-0 probes
// all lost, so the expected probe count is a constant (≈ t/γ' summed over a
// geometric series) in steady state, not just in a fresh array. The paper
// proves the stronger statement that level i's occupancy stays O(N/2^i)
// w.h.p., giving O(1) expected and O(log log N) w.h.p. probes per acquire.
//
// Total space is Σ size(i) < 2(1+γ)N = O(N), the loose-renaming namespace.
//
// # Online resize
//
// The capacity N is mutable at runtime via Resize. The whole level layout
// lives behind one epoch-stamped geometry word (an atomic pointer to an
// immutable snapshot): GetName loads it exactly once per call, so a probe
// sequence sees either the old or the new layout in full, never a torn mix.
//
// Growing appends: each level's allowed size rises to the new
// ceil((1+γ)N'/2^i), and the extra slots are laid out as fresh segments at
// the end of the array (plus wholly new levels when floor(log2 N') grows).
// Slots already handed out never move — a level becomes a chain of
// segments, and probe index x walks the chain — so concurrent holders and
// releases are untouched and the geometric occupancy argument carries over
// level by level.
//
// Shrinking marks the tail drain-only: each level's allowed size drops to
// the new formula value (deep levels beyond floor(log2 N')+1 drop to zero)
// while the physical segments stay addressable. New probes and the backup
// scan only visit the allowed prefix, so no new name is ever granted from
// the drained region; names already held there remain valid until released.
// Draining reports whether any drain-only slot is still held — the shrink
// has quiesced once it returns false. A later grow reclaims drained
// segments before appending new ones.
package levelarray

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Config parameterizes a LevelArray.
type Config struct {
	// N is the capacity: the maximum number of names held at any instant for
	// which the probe analysis holds. Must be >= 1. Uniqueness and the
	// backup-scan termination argument tolerate any load up to Namespace().
	N int
	// Gamma is the per-level slack γ > 0: level i holds ceil((1+γ)N/2^i)
	// slots. Larger γ means fewer probes and more space. Defaults to 1.
	Gamma float64
	// Probes is the number of random probes per level before descending.
	// Defaults to 2; the paper's analysis works for any constant >= 1.
	Probes int
	// EnsureSpace, when set, is called by Resize with the new exclusive
	// upper bound on TAS locations (the new extent) BEFORE the grown
	// geometry is published, so the owner of the TAS space can extend it
	// first and no probe ever addresses a location the space lacks.
	EnsureSpace func(namespace int)
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("levelarray: N = %d, need >= 1", c.N)
	}
	if c.Gamma != 0 && (!(c.Gamma > 0) || math.IsInf(c.Gamma, 0)) {
		return fmt.Errorf("levelarray: Gamma = %v, need > 0", c.Gamma)
	}
	// The full array is < 2(1+γ)N slots; refuse configurations whose size
	// would overflow int (the float→int conversion would otherwise wrap and
	// panic deep inside make()).
	if c.Gamma > 0 && (1+c.Gamma)*float64(c.N) > 1<<40 {
		return fmt.Errorf("levelarray: (1+Gamma)*N = %v exceeds the 2^40-slot limit", (1+c.Gamma)*float64(c.N))
	}
	if c.Probes < 0 {
		return fmt.Errorf("levelarray: Probes = %d, need >= 0", c.Probes)
	}
	return nil
}

// segment is one contiguous physical run of a level's slots.
type segment struct {
	start int
	size  int
}

// lvl is one geometric tier: a chain of segments accreted across grows.
// The first `size` chain positions are probe-able; positions beyond size
// (possible after a shrink) are drain-only — addressable for release,
// never granted.
type lvl struct {
	segs []segment
	phys int // Σ seg.size — physical slots ever laid out for this level
	size int // allowed (probe-able) prefix of the chain; size <= phys
}

// geometry is one immutable epoch of the layout. GetName loads the
// current geometry exactly once, so concurrent Resize publications are
// seen whole or not at all.
type geometry struct {
	epoch  uint64
	n      int   // capacity N of this epoch
	levels []lvl // levels[i].size may be 0 after a deep shrink
	extent int   // total physical slots; monotone non-decreasing
}

// LevelArray is the long-lived namer. All layout state lives in the
// atomically-swapped geometry; every bit of slot state lives behind
// Env.TAS, so the same object drives both the concurrent library and the
// lock-step simulator. GetName and the accessors are safe for concurrent
// use with Resize; Resize calls are serialized internally.
type LevelArray struct {
	cfg      Config
	geo      atomic.Pointer[geometry]
	resizeMu sync.Mutex
}

// New builds the level layout for cfg.
func New(cfg Config) (*LevelArray, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 1
	}
	if cfg.Probes == 0 {
		cfg.Probes = 2
	}
	la := &LevelArray{cfg: cfg}
	levels, extent := buildLevels(cfg.N, cfg.Gamma)
	la.geo.Store(&geometry{n: cfg.N, levels: levels, extent: extent})
	return la, nil
}

// Must is New for statically-valid configurations.
func Must(cfg Config) *LevelArray {
	la, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return la
}

// levelSize is the paper's size(i) = ceil((1+γ)N/2^i).
func levelSize(n int, gamma float64, i int) int {
	return int(math.Ceil((1 + gamma) * float64(n) / float64(int64(1)<<i)))
}

// maxLevels caps the layout at floor(log2 N)+1 levels so the tail does
// not degenerate into many 1-slot levels.
func maxLevels(n int) int {
	return int(math.Floor(math.Log2(float64(n)))) + 1
}

// buildLevels materializes the fresh single-segment layout for capacity n.
func buildLevels(n int, gamma float64) ([]lvl, int) {
	levels := make([]lvl, 0, maxLevels(n))
	next := 0
	for i := 0; i < maxLevels(n); i++ {
		size := levelSize(n, gamma, i)
		levels = append(levels, lvl{
			segs: []segment{{start: next, size: size}},
			phys: size,
			size: size,
		})
		next += size
	}
	return levels, next
}

// slot maps chain position x of level lv onto its physical offset. x
// must be < lv.phys.
func (lv *lvl) slot(x int) int {
	for _, s := range lv.segs {
		if x < s.size {
			return s.start + x
		}
		x -= s.size
	}
	panic(fmt.Sprintf("levelarray: chain position %d beyond level extent %d", x, lv.phys))
}

// GetName probes cfg.Probes random slots per level, top level first, and
// returns the first location won; if every level loses it linearly scans
// the allowed region of the array (the long-lived analogue of ReBatching's
// backup phase). The returned name is a TAS location in [0, Size()), or
// core.NoName. Interruptible environments are polled on level boundaries
// and every core.InterruptStride locations of the backup scan; an
// interrupt yields core.Cancelled before the next probe. The geometry is
// loaded once, so one call's probes all see the same resize epoch.
func (la *LevelArray) GetName(env core.Env) int {
	g := la.geo.Load()
	for i := range g.levels {
		lv := &g.levels[i]
		if lv.size == 0 {
			continue
		}
		if core.Interrupted(env) {
			return core.Cancelled
		}
		for j := 0; j < la.cfg.Probes; j++ {
			x := lv.slot(env.Intn(lv.size))
			if env.TAS(x) {
				return x
			}
		}
	}
	// Backup: scan every allowed slot, level by level, segment by segment.
	// Drain-only chain suffixes are skipped — the scan must never grant a
	// name above the shrunk bound.
	steps := 0
	for i := range g.levels {
		lv := &g.levels[i]
		remaining := lv.size
		for _, s := range lv.segs {
			if remaining == 0 {
				break
			}
			take := s.size
			if take > remaining {
				take = remaining
			}
			remaining -= take
			for u := s.start; u < s.start+take; u++ {
				if steps%core.InterruptStride == 0 && core.Interrupted(env) {
					return core.Cancelled
				}
				steps++
				if env.TAS(u) {
					return u
				}
			}
		}
	}
	return core.NoName
}

// Resize changes the capacity to n online. Growing appends segments (and
// levels) sized for the new N and publishes the layout atomically after
// cfg.EnsureSpace has extended the backing space; shrinking publishes
// reduced allowed sizes immediately, leaving the tail drain-only until
// its holders release (see Draining). Concurrent GetName calls see the
// old or the new geometry in full. Resize does not wait for a shrink to
// quiesce.
func (la *LevelArray) Resize(n int) error {
	if err := (Config{N: n, Gamma: la.cfg.Gamma, Probes: la.cfg.Probes}).validate(); err != nil {
		return err
	}
	la.resizeMu.Lock()
	defer la.resizeMu.Unlock()
	cur := la.geo.Load()
	if n == cur.n {
		return nil
	}
	active := maxLevels(n)
	count := len(cur.levels)
	if active > count {
		count = active
	}
	levels := make([]lvl, 0, count)
	extent := cur.extent
	for i := 0; i < count; i++ {
		want := 0
		if i < active {
			want = levelSize(n, la.cfg.Gamma, i)
		}
		if i >= len(cur.levels) {
			// Wholly new level for the larger capacity.
			levels = append(levels, lvl{
				segs: []segment{{start: extent, size: want}},
				phys: want,
				size: want,
			})
			extent += want
			continue
		}
		old := cur.levels[i]
		if want <= old.phys {
			// Fits in the slots already laid out: either a shrink (the
			// chain suffix beyond want turns drain-only) or a grow
			// reclaiming previously drained slots.
			levels = append(levels, lvl{segs: old.segs, phys: old.phys, size: want})
			continue
		}
		// Extend the chain. Copy the segment list: the old geometry is
		// still being read concurrently and append must not alias it.
		segs := make([]segment, len(old.segs), len(old.segs)+1)
		copy(segs, old.segs)
		segs = append(segs, segment{start: extent, size: want - old.phys})
		extent += want - old.phys
		levels = append(levels, lvl{segs: segs, phys: want, size: want})
	}
	if extent > cur.extent && la.cfg.EnsureSpace != nil {
		la.cfg.EnsureSpace(extent)
	}
	la.geo.Store(&geometry{epoch: cur.epoch + 1, n: n, levels: levels, extent: extent})
	return nil
}

// Allowed reports whether location name may be granted under the
// CURRENT geometry — false for drain-only slots after a shrink. The
// driver calls it after winning a slot: a probe sequence that raced a
// shrink (won under the old epoch, published after) hands the slot back
// and retries, so no new grant lands above the shrunk bound.
func (la *LevelArray) Allowed(name int) bool {
	g := la.geo.Load()
	if name < 0 || name >= g.extent {
		return false
	}
	for i := range g.levels {
		lv := &g.levels[i]
		pos := 0
		for _, s := range lv.segs {
			if name >= s.start && name < s.start+s.size {
				return pos+(name-s.start) < lv.size
			}
			pos += s.size
		}
	}
	return false
}

// Draining reports whether any drain-only slot (laid out physically but
// beyond its level's allowed size after a shrink) is still held, as
// observed through held, which is called with location indexes.
// A shrink has quiesced once Draining returns false; it stays false for
// a geometry with no drain-only slots.
func (la *LevelArray) Draining(held func(loc int) bool) bool {
	g := la.geo.Load()
	for i := range g.levels {
		lv := &g.levels[i]
		pos := 0
		for _, s := range lv.segs {
			for off := 0; off < s.size; off++ {
				if pos+off >= lv.size && held(s.start+off) {
					return true
				}
			}
			pos += s.size
		}
	}
	return false
}

// Epoch returns the resize epoch of the current geometry: 0 at
// construction, incremented by every successful capacity change.
func (la *LevelArray) Epoch() uint64 { return la.geo.Load().epoch }

// Namespace returns the exclusive upper bound on names, Size().
// It never decreases: a shrink keeps the drained tail addressable so
// outstanding holders can still release.
func (la *LevelArray) Namespace() int { return la.geo.Load().extent }

// MaxConcurrency implements core.LongLived: the current capacity N.
func (la *LevelArray) MaxConcurrency() int { return la.geo.Load().n }

// Size returns the total number of physical slots laid out so far,
// Σ ceil((1+γ)N/2^i) < 2(1+γ)N for the largest N yet configured.
func (la *LevelArray) Size() int { return la.geo.Load().extent }

// Levels returns the number of probe-able levels, floor(log2 N)+1 (deep
// levels drained empty by a shrink are not counted).
func (la *LevelArray) Levels() int {
	g := la.geo.Load()
	count := 0
	for i := range g.levels {
		if g.levels[i].size > 0 {
			count++
		}
	}
	return count
}

// LevelBounds returns the location range [lo, hi) of level i's first
// physical segment, for tests and instrumentation. Before any resize
// every level is a single segment, so this is the whole level.
func (la *LevelArray) LevelBounds(i int) (lo, hi int) {
	s := la.geo.Load().levels[i].segs[0]
	return s.start, s.start + s.size
}

// MaxProbeSteps returns the worst-case TAS steps of one GetName call
// under the current geometry: all level probes plus the full backup scan
// of the allowed region.
func (la *LevelArray) MaxProbeSteps() int {
	g := la.geo.Load()
	total := 0
	for i := range g.levels {
		if g.levels[i].size > 0 {
			total += la.cfg.Probes
		}
		total += g.levels[i].size
	}
	return total
}

var (
	_ core.Algorithm = (*LevelArray)(nil)
	_ core.LongLived = (*LevelArray)(nil)
)
