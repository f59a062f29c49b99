package core

import (
	"fmt"
	"math"
)

// ReBatchingConfig parameterizes a ReBatching object (§4 of the paper).
type ReBatchingConfig struct {
	// N is the maximum contention (the paper's n). Must be >= 1.
	N int
	// Epsilon is the namespace slack: the object serves names out of
	// m = ceil((1+Epsilon)*N) TAS locations. Must be > 0.
	Epsilon float64
	// Beta is the number of probes on the last batch (the paper's β >= 1,
	// tunable to set the "with high probability" exponent). Defaults to 3,
	// which by Theorem 4.1 also makes the expected total step complexity
	// O(n).
	Beta int
	// T0Override, if positive, replaces Eq. (2)'s batch-0 probe count
	// t0 = ceil(17*ln(8e/eps)/eps). The analysis constant is conservative;
	// the F2 ablation measures how far.
	T0Override int
	// DisableBackup omits the backup phase (lines 5-7 of Fig. 1), making
	// GetName return NoName when all batch probes fail. The adaptive
	// algorithms of §5 use ReBatching objects in exactly this mode.
	DisableBackup bool
	// Base is the first global TAS location of this object; the object
	// occupies locations [Base, Base+Namespace()). Composite (adaptive)
	// algorithms lay several objects out in one address space.
	Base int
}

func (c ReBatchingConfig) validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: ReBatching N = %d, need >= 1", c.N)
	}
	if !(c.Epsilon > 0) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("core: ReBatching Epsilon = %v, need > 0", c.Epsilon)
	}
	if c.Beta < 0 || c.T0Override < 0 {
		return fmt.Errorf("core: ReBatching Beta/T0Override must be non-negative")
	}
	if c.Base < 0 {
		return fmt.Errorf("core: ReBatching Base = %d, need >= 0", c.Base)
	}
	return nil
}

// batch is one contiguous group of TAS locations (the paper's B_i).
type batch struct {
	start  int // offset of the batch's first location relative to Base
	size   int // b_i locations
	probes int // t_i probes per process (Eq. 2)
}

// ReBatching is the non-adaptive loose-renaming algorithm of §4 (Fig. 1).
//
// The object owns m = ceil((1+ε)n) TAS locations, arranged into batches
// B_0..B_κ with κ = ceil(log2 log2 n):
//
//	b_0 = n,    b_i = ceil(ε·n/2^i)  for 1 <= i <= κ              (Eq. 1)
//	t_0 = ceil(17·ln(8e/ε)/ε),  t_i = 1 (1<=i<κ),  t_κ = β        (Eq. 2)
//
// (The HAL scan of the paper drops ε glyphs; the b_0 = n / b_i = εn/2^i
// reading is forced by the Lemma 4.2 proof, which states "the size of B_0
// is b_0 = n" and computes Σb_i = (1+ε)n − εn/2^κ + κ.)
//
// A process probes t_i uniformly random locations in each batch in order,
// stopping at its first TAS win; if every batch probe fails it sequentially
// scans all m locations (the backup phase), which Lemma 4.2 shows happens
// with probability at most n^-(β-o(1)).
//
// ReBatching is immutable after construction and is shared by all processes
// of an execution; all mutable state lives in the TAS space behind Env.
type ReBatching struct {
	cfg     ReBatchingConfig
	m       int // namespace size
	batches []batch
}

// NewReBatching builds the batch layout for cfg.
func NewReBatching(cfg ReBatchingConfig) (*ReBatching, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Beta == 0 {
		cfg.Beta = 3
	}
	m := int(math.Ceil((1 + cfg.Epsilon) * float64(cfg.N)))
	r := &ReBatching{
		cfg:     cfg,
		m:       m,
		batches: buildBatches(cfg.N, cfg.Epsilon, m, cfg.Beta, cfg.T0Override),
	}
	return r, nil
}

// MustReBatching is NewReBatching for statically-valid configurations.
func MustReBatching(cfg ReBatchingConfig) *ReBatching {
	r, err := NewReBatching(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// buildBatches materializes Eq. (1) and Eq. (2). The paper assumes n large
// enough that the batches fit in m; for small n the ceilings can overshoot,
// so trailing batches are clamped to the remaining capacity (correctness is
// unaffected: uniqueness comes from TAS, termination from the backup scan).
func buildBatches(n int, eps float64, m, beta, t0Override int) []batch {
	kappa := kappaFor(n)
	t0 := t0Override
	if t0 <= 0 {
		t0 = T0(eps)
	}
	batches := make([]batch, 0, kappa+1)
	next := 0
	for i := 0; i <= kappa; i++ {
		size := n
		if i > 0 {
			size = int(math.Ceil(eps * float64(n) / float64(int64(1)<<i)))
		}
		if size > m-next {
			size = m - next
		}
		if size <= 0 {
			break
		}
		probes := 1
		switch {
		case i == 0:
			probes = t0
		case i == kappa:
			probes = beta
		}
		batches = append(batches, batch{start: next, size: size, probes: probes})
		next += size
	}
	// If clamping removed the final batch, the (new) last batch plays the
	// role of B_κ and receives β probes.
	if last := len(batches) - 1; last >= 1 && batches[last].probes < beta {
		batches[last].probes = beta
	}
	return batches
}

// kappaFor returns κ = ceil(log2 log2 n), the paper's top batch index,
// extended to small n (κ = 0 for n <= 2).
func kappaFor(n int) int {
	if n <= 2 {
		return 0
	}
	return int(math.Ceil(math.Log2(math.Log2(float64(n)))))
}

// T0 returns Eq. (2)'s probe count for batch 0: ceil(17*ln(8e/eps)/eps).
func T0(eps float64) int {
	return int(math.Ceil(17 * math.Log(8*math.E/eps) / eps))
}

// GetName implements Fig. 1's GetName: batch probes in order, then the
// backup scan (unless disabled). The returned name is a global location
// index in [Base, Base+Namespace()), or NoName. Interruptible environments
// are polled on every batch boundary and every InterruptStride locations
// of the backup scan; an interrupt yields Cancelled before the next probe.
func (r *ReBatching) GetName(env Env) int {
	for i := range r.batches {
		if Interrupted(env) {
			return Cancelled
		}
		if u := r.TryGetName(env, i); u != NoName {
			return u
		}
	}
	if r.cfg.DisableBackup {
		return NoName
	}
	for u := 0; u < r.m; u++ {
		if u%InterruptStride == 0 && Interrupted(env) {
			return Cancelled
		}
		if env.TAS(r.cfg.Base + u) {
			return r.cfg.Base + u
		}
	}
	return NoName
}

// TryGetName implements Fig. 1's TryGetName(i): at most t_i independent
// uniform probes into batch i, returning the first location won, or NoName.
// Batch indices beyond the last batch report NoName without probing, which
// is what Fig. 2's Search relies on when t exceeds κ.
func (r *ReBatching) TryGetName(env Env, i int) int {
	if i < 0 || i >= len(r.batches) {
		return NoName
	}
	b := r.batches[i]
	return TryBatch(env, r.cfg.Base+b.start, b.size, b.probes)
}

// Namespace returns the exclusive upper bound on names, Base + m where
// m = ceil((1+ε)n) is the object's namespace size.
func (r *ReBatching) Namespace() int { return r.cfg.Base + r.m }

// Size returns the object's namespace size m = ceil((1+ε)n).
func (r *ReBatching) Size() int { return r.m }

// Base returns the object's first global location.
func (r *ReBatching) Base() int { return r.cfg.Base }

// Contains reports whether global name u belongs to this object's
// namespace (the paper's "u ∈ R_i" test).
func (r *ReBatching) Contains(u int) bool {
	return u >= r.cfg.Base && u < r.cfg.Base+r.m
}

// MaxBatch returns the index of the last batch (the paper's κ, after
// small-n clamping).
func (r *ReBatching) MaxBatch() int { return len(r.batches) - 1 }

// BatchBounds returns the global location range [lo, hi) of batch i,
// for tests and instrumentation.
func (r *ReBatching) BatchBounds(i int) (lo, hi int) {
	b := r.batches[i]
	return r.cfg.Base + b.start, r.cfg.Base + b.start + b.size
}

// BatchProbes returns t_i for batch i.
func (r *ReBatching) BatchProbes(i int) int { return r.batches[i].probes }

// MaxProbeSteps returns the worst-case number of TAS steps of one GetName
// call: all batch probes plus (unless disabled) the full backup scan.
func (r *ReBatching) MaxProbeSteps() int {
	total := 0
	for _, b := range r.batches {
		total += b.probes
	}
	if !r.cfg.DisableBackup {
		total += r.m
	}
	return total
}

var _ Algorithm = (*ReBatching)(nil)
