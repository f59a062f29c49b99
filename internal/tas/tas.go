// Package tas implements the test-and-set (TAS) shared-memory substrate the
// paper assumes as a hardware primitive.
//
// A test-and-set object holds a single bit, initially 0. The first process
// to apply TAS to it atomically sets the bit and "wins"; every later caller
// "loses". The paper's algorithms interact with memory exclusively through
// indexed collections of such objects, modeled here by the Space interface.
//
// Three implementations are provided:
//
//   - Dense: one bit per location, 32 to a uint32 word — the production
//     representation used by the concurrent one-shot namers.
//   - Elastic: a Dense-like array that grows online, one int32 per
//     location — the LevelArray's space, and so the one the name service
//     probes.
//   - Sparse: a lazily-allocated map for single-threaded simulations of the
//     paper's *unbounded* adaptive constructions.
//
// The two concurrent spaces share one test-and-set rule: read the
// location, and only if it reads unset try an atomic read-modify-write
// to set it. A location that is already set loses on a plain load, with
// no locked instruction; every win is still decided by the
// read-modify-write, so exactly one caller wins each time the location
// is set. Either way the caller accesses the object once, which is one
// step in the paper's measure — the read only makes a losing step
// cheaper.
//
// For Elastic's cell the read-modify-write is CAS(0→1). For Dense's bit
// it is an atomic OR of the bit into its word, and the caller wins iff
// the word's old value lacked the bit; TryReset is an atomic AND of the
// bit's complement, which succeeds iff the old value had it. Both touch
// only their own bit, so the 31 other locations of a word can be won and
// released concurrently. A namer's space costs a bit per location, not
// four bytes, and a 65,536-location ReBatching batch 0 fits in 8 KiB.
//
// Elastic keeps int32 cells for now. Bit-packing it as well shrinks the
// lease server's heap by megabytes, and in a prototype the HTTP path's
// latency rose with it, likely because the garbage collector ran more
// often with less heap to pace against; that trade is left to the work
// on sizing the server's memory to its live set.
//
// Dense also carries the concurrent one-shot driver's probe kernel,
// TryBatch: a whole batch of uniform probes in one call, drawing from an
// xrand state held in registers and applying that same rule to each
// probe. It makes exactly the draws and steps of a loop of Intn then TAS,
// and reports how many it made, so its caller can count steps without a
// wrapper around the space.
//
// Releasing a name (the long-lived extension, not part of the paper's
// one-shot model) has one primitive per space, TryReset: a single
// set→unset transition that exactly one of any racing callers wins.
package tas

import (
	"fmt"
	"sync/atomic"

	"repro/internal/xrand"
)

// Space is an indexed collection of test-and-set objects.
//
// TAS applies a test-and-set to location loc and reports whether the caller
// won (i.e. was the first to access that location). Implementations must
// document whether they are safe for concurrent use.
type Space interface {
	TAS(loc int) bool
	// Len returns the number of locations, or Unbounded for spaces that
	// allocate lazily.
	Len() int
}

// Unbounded is returned by Len for spaces without a fixed size.
const Unbounded = -1

// testAndSet is Elastic's TAS. A caller that reads the cell set loses
// at that load, without taking the cache line exclusive — the fate of
// most probes into an already-full batch. A caller that reads it unset
// races for it with the CAS, which alone decides every win.
func testAndSet(cell *int32) bool {
	return atomic.LoadInt32(cell) == 0 && atomic.CompareAndSwapInt32(cell, 0, 1)
}

// testAndSetBit is Dense's TAS of bit i of *word: the same rule for one
// bit of a shared word. A caller that reads the bit set loses at that
// load. Otherwise it ORs the bit in, and the OR's old value alone
// decides the win: exactly one of any racing callers finds the bit clear
// there, whatever the other 31 bits do meanwhile.
//
// It takes the bit's index, not its mask, so a losing probe tests the
// loaded word directly and only a caller that goes on to the OR builds
// the mask. Passing the mask in made every probe build it first, and
// the kernel's losing probes over a full space cost 10-15 % more than
// they did over int32 cells; with the index they cost the same.
func testAndSetBit(word *uint32, i uint) bool {
	return atomic.LoadUint32(word)>>i&1 == 0 && atomic.OrUint32(word, 1<<i)>>i&1 == 0
}

// Dense is a fixed-size array of TAS objects, one bit per location:
// location l is bit l&31 of word l>>5. It is safe for concurrent use.
type Dense struct {
	words []uint32
	// locs has one zero-size element per location and so costs no
	// memory. Indexing it is the range check: the spare bits of the last
	// word are out of range too, and an access outside [0, Len()) panics
	// as a slice index does, at an inliner cost that keeps TAS inlinable.
	locs []struct{}
}

// NewDense returns a Dense space with n locations, all unset.
func NewDense(n int) *Dense {
	if n < 0 {
		panic(fmt.Sprintf("tas: NewDense(%d): negative size", n))
	}
	return &Dense{words: make([]uint32, (n+31)>>5), locs: make([]struct{}, n)}
}

// bit returns the word holding location loc and loc's bit index in it.
func (d *Dense) bit(loc int) (*uint32, uint) {
	_ = d.locs[loc]
	return &d.words[loc>>5], uint(loc) & 31
}

// TAS wins iff the caller is the first to set location loc.
func (d *Dense) TAS(loc int) bool {
	return testAndSetBit(d.bit(loc))
}

// TryBatch is the probe kernel: at most t probes into [lo, lo+size), each
// a draw x = Below(size) from r's state and then a test-and-set of
// location lo+x, stopping at the first win. It returns the location won,
// or -1 (core.NoName) after t losses, and the number of draws it made:
// the winning probe's position, or t. The draws, the steps and r's final
// state are exactly those of t rounds of r.Intn(size) then TAS(lo+x), so
// draws is also the number of TAS steps. A range reaching outside
// [0, Len()) panics.
//
// The state, the bound and the words live in locals for the whole
// batch: Below inlines, so a probe is one PRNG step, one multiply, a
// shift and a mask, one bounds check against a register and one load,
// with no call and no memory traffic for the generator. r is written
// once, on the way out.
//
//renamed:noalloc
func (d *Dense) TryBatch(r *xrand.Rand, lo, size, t int) (loc, draws int) {
	_ = d.locs[lo : lo+size]
	words, n, s := d.words, uint64(size), r.State()
	for draws < t {
		var x uint64
		x, s = s.Below(n)
		draws++
		l := uint64(lo) + x
		if testAndSetBit(&words[l>>5], uint(l)&31) {
			r.SetState(s)
			return int(l), draws
		}
	}
	r.SetState(s)
	return -1, draws
}

// Len returns the number of locations.
func (d *Dense) Len() int { return len(d.locs) }

// IsSet reports whether location loc has been won. It is a read, not a TAS
// step; the paper's model does not charge for it and the algorithms never
// call it — it exists for tests and for the Release extension.
func (d *Dense) IsSet(loc int) bool {
	word, i := d.bit(loc)
	return atomic.LoadUint32(word)>>i&1 != 0
}

// TryReset atomically returns location loc to the unset state and reports
// whether this call performed the transition: it clears the bit and
// succeeds iff the old word had it. Exactly one of any set of concurrent
// TryReset calls on a set location succeeds, which is what makes
// releasing a name linearizable: a blind store after an IsSet check is
// check-then-act and lets two releases of the same name both "succeed".
func (d *Dense) TryReset(loc int) bool {
	word, i := d.bit(loc)
	return atomic.AndUint32(word, ^(1<<i))>>i&1 != 0
}

// Sparse is a lazily-allocated TAS space over the entire non-negative int
// range. It exists so the simulator can execute the paper's unbounded
// adaptive constructions (§5), where location indices grow like k⁴ but the
// number of *touched* locations stays O(k log log k).
//
// Sparse is NOT safe for concurrent use; it belongs to the single-threaded
// lock-step simulator.
type Sparse struct {
	set map[int]struct{}
}

// NewSparse returns an empty unbounded space.
func NewSparse() *Sparse {
	return &Sparse{set: make(map[int]struct{})}
}

// TAS wins iff the caller is the first to set location loc.
func (s *Sparse) TAS(loc int) bool {
	if loc < 0 {
		panic(fmt.Sprintf("tas: Sparse.TAS(%d): negative location", loc))
	}
	if _, taken := s.set[loc]; taken {
		return false
	}
	s.set[loc] = struct{}{}
	return true
}

// Len reports Unbounded.
func (s *Sparse) Len() int { return Unbounded }

// IsSet reports whether location loc has been won.
func (s *Sparse) IsSet(loc int) bool {
	_, taken := s.set[loc]
	return taken
}

// TryReset unsets loc and reports whether it was set. Sparse is
// single-threaded, so the check-then-act is trivially atomic.
func (s *Sparse) TryReset(loc int) bool {
	if _, taken := s.set[loc]; !taken {
		return false
	}
	delete(s.set, loc)
	return true
}
