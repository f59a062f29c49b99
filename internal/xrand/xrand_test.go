package xrand

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("output %d diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 64 outputs", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	const n = 1 << 12
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	matches := 0
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches != 0 {
		t.Fatalf("streams 0 and 1 matched on %d of %d outputs", matches, n)
	}
}

func TestNewStreamDeterministic(t *testing.T) {
	a := NewStream(9, 123)
	b := NewStream(9, 123)
	if a.Uint64() != b.Uint64() {
		t.Fatal("same (seed, stream) produced different outputs")
	}
}

func TestSplitMix64KnownVector(t *testing.T) {
	// Reference values for SplitMix64 seeded with 1234567, from the
	// public-domain reference implementation by Sebastiano Vigna.
	state := uint64(1234567)
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if got := splitMix64(&state); got != w {
			t.Fatalf("splitMix64 output %d = %d, want %d", i, got, w)
		}
	}
}

// TestXoshiroKnownVector pins the generator itself, bit for bit: the first
// five outputs of New and MakeStream for a few seeds, and the state a
// stream is left in. Every seeded experiment and every name a seeded namer
// hands out follows from these; a rewrite of Uint64 must keep them.
func TestXoshiroKnownVector(t *testing.T) {
	check := func(t *testing.T, what string, r *Rand, want [5]uint64) {
		t.Helper()
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Fatalf("%s output %d = %#016x, want %#016x", what, i, got, w)
			}
		}
	}
	for _, tc := range []struct {
		seed uint64
		want [5]uint64
	}{
		{0, [5]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c, 0xbba5ad4a1f842e59}},
		{1, [5]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7, 0xb27a48e29a233673}},
		{42, [5]uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1, 0xfde6dc7fe2ec5e64}},
		{0xdeadbeefcafef00d, [5]uint64{0x9e32cfb5bb93eebb, 0x16006bd9d4ac0014, 0x8ada5d6d34b6538e, 0x7c327ca32346a238, 0xc43a6d6a3492ced2}},
	} {
		check(t, fmt.Sprintf("New(%#x)", tc.seed), New(tc.seed), tc.want)
	}
	for _, tc := range []struct {
		seed, stream uint64
		want         [5]uint64
		state        [4]uint64 // after the five outputs
	}{
		{1, 0,
			[5]uint64{0x30a72abcc08f1a34, 0x257fa6f02122efe9, 0x19b51c8e0b16865e, 0x5e283145755a51c2, 0x9829dd8be40024f6},
			[4]uint64{0x9a2365f82903c5c8, 0x2aeacd12575a2add, 0x3f9e4f183af75da4, 0x4486b7e54498266b}},
		{1, 1,
			[5]uint64{0x22b4cd1a2d32d5cf, 0xfdcebd9240b00def, 0xf1b1cab4461ef36c, 0x271f57ab78689d95, 0x8415897c03d4b06d},
			[4]uint64{0xc7ecf9471bb2c7ff, 0x16d880ea89720a00, 0xbf3745df1fe1864c, 0xfd9cee94f3a20b50}},
		{42, 7,
			[5]uint64{0x3394e25ed175cb6f, 0xfa6225f75bfdadbd, 0x728838e40473cc04, 0x7a5da2fd6cf5dc74, 0xfe0bb90a9ce88de8},
			[4]uint64{0x4cad04fb5186e7ca, 0x14cb8006feb38c94, 0xb167fe5bbabdf089, 0x8980359a6c7184ee}},
		{0xdeadbeefcafef00d, 1 << 40,
			[5]uint64{0x21bb38fbc5186b51, 0x36ae5d3811e57f67, 0x0e661b46b8d14518, 0x1c66fa5c4f255b7a, 0x648ec8ebe73edf7a},
			[4]uint64{0xaa21e777f1940f33, 0x7712cec5829ee311, 0xc8eda7ed94baed3d, 0x2bc4dc1b5af6a1bb}},
	} {
		r := MakeStream(tc.seed, tc.stream)
		what := fmt.Sprintf("MakeStream(%#x, %#x)", tc.seed, tc.stream)
		check(t, what, &r, tc.want)
		if r.s != tc.state {
			t.Fatalf("%s state after five outputs = %#x, want %#x", what, r.s, tc.state)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestBelowRejectionBranch drives the branch of Lemire's draw that the
// namers' sizes almost never reach: a redraw, taken only when the low
// product word falls below 2^64 mod n (under 2^-47 per draw at their
// sizes). At n = 2^63+1 about half of all outputs are rejected; Intn
// cannot take that n, so it is compared at floor(2^64/3)+1, where about a
// third are, close to the most an int n allows. State.Below, and Intn
// where n fits an int, must agree with the method spelled out over Uint64
// on every value and on the final state.
func TestBelowRejectionBranch(t *testing.T) {
	const draws = 10_000
	for _, n := range []uint64{1<<63 + 1, math.MaxUint64/3 + 1} {
		t.Run(fmt.Sprintf("n=%#x", n), func(t *testing.T) {
			ref, viaIntn := New(17), New(17)
			s := New(17).State()
			rejected := 0
			for i := 0; i < draws; i++ {
				hi, lo := bits.Mul64(ref.Uint64(), n)
				if lo < n {
					threshold := -n % n
					for lo < threshold {
						rejected++
						hi, lo = bits.Mul64(ref.Uint64(), n)
					}
				}
				var x uint64
				if x, s = s.Below(n); x != hi {
					t.Fatalf("draw %d: Below = %d, reference %d", i, x, hi)
				}
				if n <= math.MaxInt {
					if v := viaIntn.Intn(int(n)); uint64(v) != hi {
						t.Fatalf("draw %d: Intn = %d, reference %d", i, v, hi)
					}
				}
			}
			if s != ref.State() {
				t.Fatalf("Below left state %#x, reference %#x", s, ref.State())
			}
			if n <= math.MaxInt && viaIntn.s != ref.s {
				t.Fatalf("Intn left state %#x, reference %#x", viaIntn.s, ref.s)
			}
			if rejected < 1000 {
				t.Fatalf("%d draws rejected only %d outputs, want at least 1000", draws, rejected)
			}
			t.Logf("%d draws, %d rejected outputs", draws, rejected)
		})
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-style sanity check: 10 buckets, 100k draws. With a fair
	// generator each bucket holds 10k ± a few hundred.
	const (
		buckets = 10
		draws   = 100_000
	)
	r := New(99)
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := draws / buckets
	for b, c := range counts {
		if c < want-500 || c > want+500 {
			t.Errorf("bucket %d: %d draws, want %d±500", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100_000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestFloat64OpenExcludesZero(t *testing.T) {
	r := New(6)
	for i := 0; i < 100_000; i++ {
		if f := r.Float64Open(); f <= 0 || f >= 1 {
			t.Fatalf("Float64Open() = %v out of (0,1)", f)
		}
	}
}

// perm returns a random permutation of [0, n) drawn with r.Intn, the
// inside-out Fisher–Yates shuffle.
func perm(r *Rand, n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 5, 64, 1000} {
		p := perm(r, n)
		if len(p) != n {
			t.Fatalf("perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUnbiasedFirstElement(t *testing.T) {
	// The first element of perm(r, 4) should be uniform over {0,1,2,3}.
	r := New(11)
	counts := make([]int, 4)
	const trials = 40_000
	for i := 0; i < trials; i++ {
		counts[perm(r, 4)[0]]++
	}
	for v, c := range counts {
		if c < trials/4-600 || c > trials/4+600 {
			t.Errorf("first element %d appeared %d times, want %d±600", v, c, trials/4)
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	r := New(13)
	property := func(seed uint64, rawN uint8) bool {
		n := int(rawN%50) + 1
		s := New(seed)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i
		}
		s.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		seen := make([]bool, n)
		for _, v := range vals {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200, Rand: stdRandFrom(r)}); err != nil {
		t.Fatal(err)
	}
}
