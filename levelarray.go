package renaming

import (
	"fmt"

	"repro/internal/levelarray"
	"repro/internal/tas"
)

// LevelArray is the long-lived namer of Alistarh, Kopinsky, Matveev and
// Shavit, "The LevelArray: A Fast, Practical Long-Lived Renaming Algorithm"
// (ICDCS 2014). Unlike the one-shot ReBatching family, its constant expected
// probe bound holds in steady state under arbitrary Release/Acquire churn,
// as long as at most Capacity() names are held at any instant. Create one
// with NewLevelArray.
//
// The capacity is live: Resize grows the level structure online
// (appending segments over a growable TAS space) or shrinks it by marking
// the namespace tail drain-only; see ResizableNamer for the contract.
type LevelArray struct {
	*namer
	alg *levelarray.LevelArray
}

// NewLevelArray builds a long-lived namer with capacity n: at most n names
// held concurrently, out of a namespace of size just under 2(1+γ)n. The
// per-level slack γ is set with WithGamma (default 1) and the per-level
// probe count with WithLevelProbes (default 2). The one-shot family's
// WithEpsilon does not apply here and is rejected with ErrBadConfig.
func NewLevelArray(n int, opts ...Option) (*LevelArray, error) {
	o, err := collectOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.checkApplicable("levelarray", optGamma, optLevelProbes); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, badConfig("levelarray", "n", fmt.Sprint(n), "need capacity >= 1")
	}
	// The elastic space must exist before the algorithm, because Resize
	// extends the space (EnsureSpace) BEFORE publishing the grown
	// geometry — no probe may ever address a missing location.
	mem := tas.NewElastic(0)
	alg, err := levelarray.New(levelarray.Config{
		N:      n,
		Gamma:  o.gamma,
		Probes: o.levelProbes,
		EnsureSpace: func(namespace int) error {
			mem.Grow(namespace)
			return nil
		},
	})
	if err != nil {
		return nil, wrapConfig("levelarray", err)
	}
	mem.Grow(alg.Namespace())
	l := &LevelArray{namer: newNamerOn(alg, o, mem), alg: alg}
	l.namer.allowed = alg.Allowed
	return l, nil
}

// Capacity implements LongLivedNamer: the maximum number of concurrently
// held names for which the constant-probe analysis holds, as of the
// current resize epoch.
func (l *LevelArray) Capacity() int { return l.alg.MaxConcurrency() }

// Resize implements ResizableNamer: it sets the capacity to n online.
// Growing extends the TAS space and appends level segments before the
// new geometry becomes visible; shrinking takes effect immediately for
// new acquisitions and leaves names above the bound drain-only (see
// Draining). It fails with ErrBadConfig when n is invalid for the
// namer's γ.
func (l *LevelArray) Resize(n int) error {
	if err := l.alg.Resize(n); err != nil {
		return wrapConfig("levelarray", err)
	}
	return nil
}

// Draining implements ResizableNamer: true while any name above the
// current capacity's allowed bound is still held.
func (l *LevelArray) Draining() bool {
	return l.alg.Draining(l.namer.mem.IsSet)
}

// ResizeEpoch implements ResizableNamer: the number of capacity changes
// applied so far.
func (l *LevelArray) ResizeEpoch() uint64 { return l.alg.Epoch() }

var _ ResizableNamer = (*LevelArray)(nil)
