package core

import (
	"fmt"
	"math"
)

// FastAdaptiveConfig parameterizes FastAdaptiveReBatching (§5.2, Fig. 2).
// The paper fixes ε = 1 for this algorithm, so R_i's namespace is exactly
// {2^(i+1), ..., 2^(i+2)-1} (the Fig. 2 layout comment).
type FastAdaptiveConfig struct {
	// Beta and T0Override tune the underlying ReBatching objects.
	Beta       int
	T0Override int
	// MaxLevel, if positive, bounds the collection at R_MaxLevel; a process
	// whose doubling race reaches the top and fails its constant-probe
	// visit falls back to the top object's full GetName (backup enabled),
	// guaranteeing termination with O(2^MaxLevel) TAS locations. If zero,
	// the collection is unbounded (single-threaded simulation only).
	MaxLevel int
}

func (c FastAdaptiveConfig) validate() error {
	if c.MaxLevel < 0 || c.MaxLevel > maxAdaptiveLevel-2 {
		return fmt.Errorf("core: FastAdaptive MaxLevel = %d, need 0..%d", c.MaxLevel, maxAdaptiveLevel-2)
	}
	if c.Beta < 0 || c.T0Override < 0 {
		return fmt.Errorf("core: FastAdaptive Beta/T0Override must be non-negative")
	}
	return nil
}

// FastAdaptive is the FastAdaptiveReBatching algorithm of §5.2 (Fig. 2).
//
// Like Adaptive it races up the doubling sequence and then searches
// downward, but each visit to an object performs only the constant-size
// probe set of a single batch (TryGetName) rather than a full GetName, and
// the recursive Search method revisits objects with increasing batch
// indices as the binary search tightens. Theorem 5.2: total step complexity
// O(k log log k) and largest name O(k), both w.h.p.
//
// The bounded variant is safe for concurrent use (layouts precomputed);
// the unbounded variant is reserved for the single-threaded simulator.
type FastAdaptive struct {
	cfg FastAdaptiveConfig
	// objs[i] is R_{i+1}, with base 2^(i+2) per the Fig. 2 layout.
	objs []*ReBatching
	top  *ReBatching // backup-enabled duplicate layout of R_MaxLevel
}

// NewFastAdaptive builds a FastAdaptiveReBatching instance.
func NewFastAdaptive(cfg FastAdaptiveConfig) (*FastAdaptive, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Beta == 0 {
		cfg.Beta = 3
	}
	f := &FastAdaptive{cfg: cfg}
	if cfg.MaxLevel > 0 {
		f.ensure(cfg.MaxLevel)
		topCfg := f.objs[cfg.MaxLevel-1].cfg
		topCfg.DisableBackup = false
		f.top = MustReBatching(topCfg)
	}
	return f, nil
}

// MustFastAdaptive is NewFastAdaptive for statically-valid configurations.
func MustFastAdaptive(cfg FastAdaptiveConfig) *FastAdaptive {
	f, err := NewFastAdaptive(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// ensure builds layouts R_1..R_i.
func (f *FastAdaptive) ensure(i int) {
	if i > maxAdaptiveLevel-2 {
		panic(fmt.Sprintf("core: adaptive level %d exceeds the address space", i))
	}
	for len(f.objs) < i {
		j := len(f.objs) + 1 // building R_j: n_j = 2^j, ε = 1, base 2^(j+1)
		f.objs = append(f.objs, MustReBatching(ReBatchingConfig{
			N:             1 << j,
			Epsilon:       1,
			Beta:          f.cfg.Beta,
			T0Override:    f.cfg.T0Override,
			DisableBackup: true,
			Base:          1 << (j + 1),
		}))
	}
}

// object returns R_i (1-based).
func (f *FastAdaptive) object(i int) *ReBatching {
	f.ensure(i)
	return f.objs[i-1]
}

// contains reports the paper's "u ∈ R_i" test; with the Fig. 2 layout it is
// the interval check 2^(i+1) <= u < 2^(i+2).
func contains(i, u int) bool {
	return u >= 1<<(i+1) && u < 1<<(i+2)
}

// kappaOf returns κ(i) = the maximum batch index of R_i (⌈log2 i⌉ for the
// Fig. 2 layout).
func (f *FastAdaptive) kappaOf(i int) int {
	return f.object(i).MaxBatch()
}

// GetName implements Fig. 2's GetName.
func (f *FastAdaptive) GetName(env Env) int {
	capLevel := f.cfg.MaxLevel
	// Doubling race (lines 1-5): visit R_{2^ℓ} with a single TryGetName(0)
	// until one succeeds. seq records the capped index sequence so the
	// downward sweep can recover its predecessor levels. Capped at
	// MaxLevel <= 58 (or stopped by object's panic when unbounded) it has
	// at most seven entries, so a constant capacity of 8 keeps it on the
	// stack; append would still grow past it.
	var (
		u   = NoName
		seq = make([]int, 0, 8)
	)
	for ell := 0; ; ell++ {
		if Interrupted(env) {
			// Interrupted while holding nothing: abandon with no slot won.
			return Cancelled
		}
		idx := 1 << ell
		if capLevel > 0 && idx > capLevel {
			idx = capLevel
		}
		seq = append(seq, idx)
		u = f.object(idx).TryGetName(env, 0)
		if u != NoName {
			break
		}
		if capLevel > 0 && idx == capLevel {
			// Bounded collection: the top visit failed, so fall back to
			// the top object's full GetName (backup enabled). Guaranteed
			// to succeed while contention stays within the bound.
			u = f.top.GetName(env)
			if u == NoName || u == Cancelled {
				return u
			}
			break
		}
	}

	// Downward sweep (lines 6-9): while the current name still belongs to
	// the top of the active range, search the lower half for a smaller one.
	// From here on u is a name the process has already won, so an interrupt
	// stops the sweep and returns u — never Cancelled, which would leak it.
	for pos := len(seq) - 1; pos >= 1 && contains(seq[pos], u); pos-- {
		if Interrupted(env) {
			return u
		}
		u = f.search(seq[pos-1], seq[pos], u, 1, env)
	}
	return u
}

// search implements Fig. 2's Search(a, b, u, t): on entry u is a name the
// process has acquired from R_b, a < b, and R_a has been visited with batch
// indices 0..t-1 already. It returns a name from some R_i with a <= i <= b.
// Because u is always a held name, an interrupt returns u unchanged.
func (f *FastAdaptive) search(a, b, u, t int, env Env) int {
	if t > f.kappaOf(a) || Interrupted(env) {
		return u
	}
	if uPrime := f.object(a).TryGetName(env, t); uPrime != NoName {
		return uPrime
	}
	d := (a + b + 1) / 2 // ⌈(a+b)/2⌉
	if d < b {
		u = f.search(d, b, u, 0, env)
	}
	if contains(d, u) {
		u = f.search(a, d, u, t+1, env)
	}
	return u
}

// Namespace returns the exclusive upper bound on names for the bounded
// collection (2^(MaxLevel+2) with the Fig. 2 layout); it panics for
// unbounded collections.
func (f *FastAdaptive) Namespace() int {
	if f.cfg.MaxLevel == 0 {
		panic("core: Namespace undefined for unbounded FastAdaptive; names are O(k) w.h.p.")
	}
	return 1 << (f.cfg.MaxLevel + 2)
}

var _ Algorithm = (*FastAdaptive)(nil)

// MaxLevelFor returns the level cap the paper's "n is known" modification
// prescribes for maximum contention n: the smallest L with 2^L >= 2n, so
// the top object alone can name every process.
func MaxLevelFor(n int) int {
	if n < 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n)))) + 1
}
