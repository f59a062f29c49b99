package core

import (
	"fmt"
	"math"
)

// maxAdaptiveLevel caps the index of ReBatching objects in the unbounded
// formulation so that global location offsets fit in an int64: object R_i
// ends near 2^(i+2) for ε = 1. Reaching this cap would require contention
// beyond 2^56 or an event of probability < 2^-1000; we fail loudly instead
// of overflowing silently.
const maxAdaptiveLevel = 60

// levels lays out a collection R_1, R_2, ... of ReBatching objects in one
// global TAS address space: R_i has parameter n_i = 2^i, namespace size
// m_i = ceil((1+ε)·2^i), and occupies [s_i, s_i+m_i) with s_i = Σ_{j<i} m_j.
// Objects are built lazily because the unbounded formulation has no a
// priori top level.
type levels struct {
	eps  float64
	beta int
	t0   int
	objs []*ReBatching // objs[i] is R_{i+1}
	next int           // s for the next object to be built
}

func newLevels(eps float64, beta, t0Override int) *levels {
	return &levels{eps: eps, beta: beta, t0: t0Override}
}

// object returns R_i (1-based), building layouts up to i on first use.
// It panics beyond maxAdaptiveLevel; see the constant's comment.
func (lv *levels) object(i int) *ReBatching {
	if i < 1 {
		panic(fmt.Sprintf("core: level %d out of range", i))
	}
	if i > maxAdaptiveLevel {
		panic(fmt.Sprintf("core: adaptive level %d exceeds the %d-level address space", i, maxAdaptiveLevel))
	}
	for len(lv.objs) < i {
		j := len(lv.objs) + 1 // building R_j
		r := MustReBatching(ReBatchingConfig{
			N:             1 << j,
			Epsilon:       lv.eps,
			Beta:          lv.beta,
			T0Override:    lv.t0,
			DisableBackup: true,
			Base:          lv.next,
		})
		lv.objs = append(lv.objs, r)
		lv.next += r.Size()
	}
	return lv.objs[i-1]
}

// AdaptiveConfig parameterizes AdaptiveReBatching (§5.1).
type AdaptiveConfig struct {
	// Epsilon is the per-object namespace slack (must be > 0).
	Epsilon float64
	// Beta and T0Override tune the underlying ReBatching objects.
	Beta       int
	T0Override int
	// MaxLevel, if positive, bounds the collection at R_MaxLevel and
	// enables the backup phase on that top object, guaranteeing
	// termination with O(2^MaxLevel) total TAS objects — the paper's
	// "if n is known" modification. If zero, the collection is unbounded
	// (the paper's idealized formulation) and GetName can in principle
	// return NoName only with probability 0.
	MaxLevel int
}

func (c AdaptiveConfig) validate() error {
	if !(c.Epsilon > 0) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("core: Adaptive Epsilon = %v, need > 0", c.Epsilon)
	}
	if c.MaxLevel < 0 || c.MaxLevel > maxAdaptiveLevel {
		return fmt.Errorf("core: Adaptive MaxLevel = %d, need 0..%d", c.MaxLevel, maxAdaptiveLevel)
	}
	if c.Beta < 0 || c.T0Override < 0 {
		return fmt.Errorf("core: Adaptive Beta/T0Override must be non-negative")
	}
	return nil
}

// Adaptive is the AdaptiveReBatching algorithm of §5.1. A process first
// races up the doubling sequence R_1, R_2, R_4, R_16, ... (calling the full
// GetName of each object, without backup) until it acquires a name, then
// binary-searches the objects R_{2^(ℓ-1)+1} .. R_{2^ℓ} for the smallest
// index at which it can still acquire a name. Theorem 5.1: step complexity
// O((log log k)²) and largest name O(k), both w.h.p., where k is the actual
// contention.
//
// Adaptive is safe for concurrent use by multiple processes when MaxLevel
// is set (layouts are precomputed); the unbounded variant is reserved for
// the single-threaded simulator.
type Adaptive struct {
	cfg AdaptiveConfig
	lv  *levels
	top *ReBatching // backup-enabled top object when MaxLevel > 0
}

// NewAdaptive builds an AdaptiveReBatching instance.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Beta == 0 {
		cfg.Beta = 3
	}
	a := &Adaptive{
		cfg: cfg,
		lv:  newLevels(cfg.Epsilon, cfg.Beta, cfg.T0Override),
	}
	if cfg.MaxLevel > 0 {
		// Precompute layouts R_1..R_{MaxLevel-1} and build the top object
		// with its backup phase enabled: any process that reaches the top
		// is guaranteed a name there because R_MaxLevel has at least
		// (1+ε)·2^MaxLevel >= n locations.
		var base int
		if cfg.MaxLevel > 1 {
			below := a.lv.object(cfg.MaxLevel - 1)
			base = below.Base() + below.Size()
		}
		a.top = MustReBatching(ReBatchingConfig{
			N:          1 << cfg.MaxLevel,
			Epsilon:    cfg.Epsilon,
			Beta:       cfg.Beta,
			T0Override: cfg.T0Override,
			Base:       base,
		})
	}
	return a, nil
}

// MustAdaptive is NewAdaptive for statically-valid configurations.
func MustAdaptive(cfg AdaptiveConfig) *Adaptive {
	a, err := NewAdaptive(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// object returns R_i, substituting the backup-enabled top object at the
// bounded collection's cap.
func (a *Adaptive) object(i int) *ReBatching {
	if a.top != nil && i >= a.cfg.MaxLevel {
		return a.top
	}
	return a.lv.object(i)
}

// level clamps a requested level to the collection's cap.
func (a *Adaptive) level(i int) int {
	if a.top != nil && i > a.cfg.MaxLevel {
		return a.cfg.MaxLevel
	}
	return i
}

// GetName implements §5.1: the doubling race followed by binary search.
func (a *Adaptive) GetName(env Env) int {
	// Phase 1: access R_{2^ℓ} for ℓ = 0, 1, ... until some GetName
	// succeeds. With a bounded collection the sequence is capped at
	// MaxLevel, where the backup phase guarantees success.
	var (
		u    = NoName
		prev = 0 // previous index in the (capped) doubling sequence
		idx  = 1
	)
	for ell := 0; ; ell++ {
		u = a.object(idx).GetName(env)
		if u == Cancelled {
			// Interrupted while holding nothing: abandon with no slot won.
			return Cancelled
		}
		if u != NoName {
			break
		}
		if a.top != nil && idx >= a.cfg.MaxLevel {
			// The backup-enabled top object failed: contention exceeded
			// the configured bound.
			return NoName
		}
		prev = idx
		idx = a.level(1 << (ell + 1))
	}
	if idx == 1 {
		return u // name from R_1; nothing below to search
	}

	// Phase 2: binary search on R_{prev+1} .. R_idx for the smallest
	// index still able to hand out a name. The invariant is that u is a
	// name already acquired from R_hi — so an interrupt here returns u,
	// the name already won, never Cancelled (that would leak the slot).
	lo, hi := prev+1, idx
	for lo < hi {
		if Interrupted(env) {
			return u
		}
		d := (lo + hi) / 2
		if v := a.object(d).GetName(env); v != NoName && v != Cancelled {
			hi = d
			u = v
		} else if v == Cancelled {
			return u
		} else {
			lo = d + 1
		}
	}
	return u
}

// Namespace returns the exclusive upper bound on names the bounded
// collection can produce. It panics for unbounded collections, whose names
// are bounded only in terms of the execution's contention.
func (a *Adaptive) Namespace() int {
	if a.top == nil {
		panic("core: Namespace undefined for unbounded Adaptive; names are O(k) w.h.p.")
	}
	return a.top.Base() + a.top.Size()
}

var _ Algorithm = (*Adaptive)(nil)
