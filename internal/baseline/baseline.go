// Package baseline implements the comparison renaming algorithms that the
// paper's experiments are measured against:
//
//   - Uniform: the §4 strawman — repeated uniform random probes into the
//     whole namespace, which needs Ω(log n) probes for some process with
//     probability 1-o(1).
//   - LinearScan: deterministic sequential scanning, the trivial O(n)
//     wait-free solution.
//   - SegScan: segmented scanning in the style of randomized naming à la
//     Panconesi et al. — pick a random segment, scan it, move on.
//
// All types implement core.Algorithm, so they run under both the
// concurrent driver and the adversarial simulator.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Uniform probes locations of a namespace of size m = ceil((1+ε)n)
// uniformly at random until it wins one. To keep the algorithm wait-free
// (pure uniform probing has unbounded worst case), it falls back to a
// sequential scan after MaxProbes failed probes; the fallback triggers with
// probability exponentially small in MaxProbes.
type Uniform struct {
	m         int
	maxProbes int
}

// NewUniform builds a uniform-probing namer for n processes with namespace
// slack eps. maxProbes <= 0 selects the default cap of 4m probes.
func NewUniform(n int, eps float64, maxProbes int) (*Uniform, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: Uniform n = %d, need >= 1", n)
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("baseline: Uniform eps = %v, need > 0", eps)
	}
	m := int(math.Ceil((1 + eps) * float64(n)))
	if maxProbes <= 0 {
		maxProbes = 4 * m
	}
	return &Uniform{m: m, maxProbes: maxProbes}, nil
}

// MustUniform is NewUniform for statically-valid arguments.
func MustUniform(n int, eps float64, maxProbes int) *Uniform {
	u, err := NewUniform(n, eps, maxProbes)
	if err != nil {
		panic(err)
	}
	return u
}

// GetName implements core.Algorithm. Interruptible environments are
// polled every core.InterruptStride probes; an interrupt yields
// core.Cancelled before the next probe.
func (u *Uniform) GetName(env core.Env) int {
	for i := 0; i < u.maxProbes; i++ {
		if i%core.InterruptStride == 0 && core.Interrupted(env) {
			return core.Cancelled
		}
		x := env.Intn(u.m)
		if env.TAS(x) {
			return x
		}
	}
	for x := 0; x < u.m; x++ {
		if x%core.InterruptStride == 0 && core.Interrupted(env) {
			return core.Cancelled
		}
		if env.TAS(x) {
			return x
		}
	}
	return core.NoName
}

// Namespace implements core.Algorithm.
func (u *Uniform) Namespace() int { return u.m }

// LinearScan probes locations 0, 1, 2, ... in order until it wins one.
// Namespace size n exactly (tight renaming!), but step complexity Θ(n) per
// process and Θ(n²) total in the worst case.
type LinearScan struct {
	m int
}

// NewLinearScan builds a scanning namer for n processes.
func NewLinearScan(n int) (*LinearScan, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: LinearScan n = %d, need >= 1", n)
	}
	return &LinearScan{m: n}, nil
}

// MustLinearScan is NewLinearScan for statically-valid arguments.
func MustLinearScan(n int) *LinearScan {
	l, err := NewLinearScan(n)
	if err != nil {
		panic(err)
	}
	return l
}

// GetName implements core.Algorithm. Interruptible environments are
// polled every core.InterruptStride locations.
func (l *LinearScan) GetName(env core.Env) int {
	for x := 0; x < l.m; x++ {
		if x%core.InterruptStride == 0 && core.Interrupted(env) {
			return core.Cancelled
		}
		if env.TAS(x) {
			return x
		}
	}
	return core.NoName
}

// Namespace implements core.Algorithm.
func (l *LinearScan) Namespace() int { return l.m }

// SegScan divides a namespace of size m = ceil((1+ε)n) into segments of
// SegSize locations. A process picks a uniformly random segment, scans it
// sequentially, and on exhaustion picks another, falling back to a full
// scan after maxRounds segments. This is the flavour of the randomized
// naming algorithms predating the paper (e.g. Panconesi et al. 1998):
// randomization at the segment level, determinism inside.
type SegScan struct {
	m         int
	segSize   int
	segments  int
	maxRounds int
}

// NewSegScan builds a segmented scanner; segSize <= 0 selects
// max(2, ceil(log2 n)) — the classic choice.
func NewSegScan(n int, eps float64, segSize int) (*SegScan, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: SegScan n = %d, need >= 1", n)
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("baseline: SegScan eps = %v, need > 0", eps)
	}
	m := int(math.Ceil((1 + eps) * float64(n)))
	if segSize <= 0 {
		segSize = 2
		if n > 4 {
			segSize = int(math.Ceil(math.Log2(float64(n))))
		}
	}
	if segSize > m {
		segSize = m
	}
	segments := (m + segSize - 1) / segSize
	return &SegScan{
		m:         m,
		segSize:   segSize,
		segments:  segments,
		maxRounds: 4 * segments,
	}, nil
}

// MustSegScan is NewSegScan for statically-valid arguments.
func MustSegScan(n int, eps float64, segSize int) *SegScan {
	s, err := NewSegScan(n, eps, segSize)
	if err != nil {
		panic(err)
	}
	return s
}

// GetName implements core.Algorithm. Interruptible environments are
// polled on segment boundaries and every core.InterruptStride locations
// of the fallback scan.
func (s *SegScan) GetName(env core.Env) int {
	for round := 0; round < s.maxRounds; round++ {
		if core.Interrupted(env) {
			return core.Cancelled
		}
		seg := env.Intn(s.segments)
		lo := seg * s.segSize
		hi := lo + s.segSize
		if hi > s.m {
			hi = s.m
		}
		for x := lo; x < hi; x++ {
			if env.TAS(x) {
				return x
			}
		}
	}
	for x := 0; x < s.m; x++ {
		if x%core.InterruptStride == 0 && core.Interrupted(env) {
			return core.Cancelled
		}
		if env.TAS(x) {
			return x
		}
	}
	return core.NoName
}

// Namespace implements core.Algorithm.
func (s *SegScan) Namespace() int { return s.m }

var (
	_ core.Algorithm = (*Uniform)(nil)
	_ core.Algorithm = (*LinearScan)(nil)
	_ core.Algorithm = (*SegScan)(nil)
)
