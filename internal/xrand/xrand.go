// Package xrand provides the deterministic randomness substrate used by the
// renaming algorithms, the lock-step simulator, and the lower-bound gadget.
//
// The package implements SplitMix64 (seed expansion and stream derivation)
// and xoshiro256** (bulk generation) from scratch so that every experiment
// in this repository is exactly reproducible from a single uint64 seed,
// across platforms and Go releases. The standard library's math/rand makes
// no cross-version stream stability promises, which is why it is not used.
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

// Uint64 returns the next 64 uniformly random bits.
//
// The state is stepped in locals and stored back once, which keeps the
// inliner's cost at 76 of its budget of 80, so Uint64 inlines into Intn
// on every probe. TestXoshiroKnownVector pins the output; CI checks that
// it still inlines.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9

	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}

	return result
}

// Int63 returns a non-negative random int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
// Uniformity uses Lemire's multiply-shift rejection method.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
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

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
