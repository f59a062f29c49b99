// Package xrand provides the deterministic randomness substrate used by the
// renaming algorithms, the lock-step simulator, and the lower-bound gadget.
//
// The package implements SplitMix64 (seed expansion and stream derivation)
// and xoshiro256** (bulk generation) from scratch so that every experiment
// in this repository is exactly reproducible from a single uint64 seed,
// across platforms and Go releases. The standard library's math/rand makes
// no cross-version stream stability promises, which is why it is not used.
//
// The xoshiro step and Lemire's bounded draw are each written once, in
// value form: State.Next and State.Below take a State and return the
// state after them, so a loop over a local State keeps the generator in
// registers. Rand.Uint64 and Rand.Intn are built on them, and so is the
// concurrent driver's probe kernel (tas.Dense.TryBatch), which loads a
// Rand's State once per probe batch and stores it back once; every output
// is the same whichever of them draws it.
//
// A Rand is NOT safe for concurrent use; concurrent callers derive
// independent per-process streams with NewStream or MakeStream.
package xrand

import "math/bits"

// Rand is a deterministic pseudo-random number generator
// (xoshiro256** seeded via SplitMix64).
type Rand struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	return &r
}

// NewStream returns a generator for an independent stream derived from
// (seed, stream). Distinct stream values yield statistically independent
// sequences, which is how per-process randomness is created without
// sharing state between goroutines.
func NewStream(seed, stream uint64) *Rand {
	r := MakeStream(seed, stream)
	return &r
}

// MakeStream returns NewStream's generator by value, so a caller can
// embed it in a struct it allocates anyway instead of paying a second
// heap object per stream.
//
//renamed:noalloc
func MakeStream(seed, stream uint64) Rand {
	// Mix the stream index through SplitMix64 twice so that consecutive
	// stream ids land far apart in seed space.
	sm := stream
	mixed := splitMix64(&sm)
	mixed = splitMix64(&mixed)
	return *New(seed ^ mixed)
}

// splitMix64 advances *state and returns the next SplitMix64 output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// State is a generator's xoshiro256** state as a value. A struct of four
// words is one the compiler can keep in registers, which Rand's array is
// not, so a loop that steps a local State touches no memory for it.
type State struct{ s0, s1, s2, s3 uint64 }

// State returns r's current state.
func (r *Rand) State() State { return State{r.s[0], r.s[1], r.s[2], r.s[3]} }

// SetState makes s r's state: the next draw from r is s's next output.
func (r *Rand) SetState(s State) { r.s = [4]uint64{s.s0, s.s1, s.s2, s.s3} }

// Next is the xoshiro256** step: the next 64 uniformly random bits, and
// the state after them. It is the generator's only copy of the step, and
// it is written to stay cheap for the inliner (cost 49 of 80) so that
// Below, which inlines it, inlines in turn.
func (s State) Next() (uint64, State) {
	s1 := s.s1
	s.s2 ^= s.s0
	s.s3 ^= s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= s1 << 17
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return bits.RotateLeft64(s1*5, 7) * 9, s
}

// Below is Lemire's multiply-shift draw: a uniform value in [0, n), and
// the state after it. An output whose low product word falls below
// 2^64 mod n is rejected and the next one tried; the remainder is taken
// only when the low word is below n, the only case where a rejection is
// possible. n must be positive. It is the generator's only bounded draw.
//
// Below sits exactly at the inliner's budget of 80 (x is reused for the
// draw's result to get there), so a probe loop that calls it keeps the
// whole draw in registers; CI fails the build if it stops inlining.
func (s State) Below(n uint64) (x uint64, _ State) {
	for {
		x, s = s.Next()
		var lo uint64
		if x, lo = bits.Mul64(x, n); lo >= n || lo >= -n%n {
			return x, s
		}
	}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	x, s := r.State().Next()
	r.SetState(s)
	return x
}

// Intn returns a uniform random int in [0, n) by State.Below. It panics
// if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	x, s := r.State().Below(uint64(n))
	r.SetState(s)
	return int(x)
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform random float64 in the open interval (0, 1),
// which quantile-coupling code relies on (u = 0 would break inverse-CDF
// monotonicity arguments at the boundary).
func (r *Rand) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Shuffle randomizes the order of n elements using swap (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
