package tas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// compile-time interface compliance checks.
var (
	_ Space = (*Dense)(nil)
	_ Space = (*Sparse)(nil)
)

// resettable is the extra surface shared by Dense, Elastic and Sparse.
type resettable interface {
	Space
	IsSet(loc int) bool
	TryReset(loc int) bool
}

// concurrentSpaces returns one of each space that is safe for concurrent
// use, each with n locations.
func concurrentSpaces(n int) map[string]resettable {
	return map[string]resettable{
		"dense":   NewDense(n),
		"elastic": NewElastic(n),
	}
}

func spaces(n int) map[string]resettable {
	s := concurrentSpaces(n)
	s["sparse"] = NewSparse()
	return s
}

func TestFirstCallerWins(t *testing.T) {
	for name, s := range spaces(4) {
		t.Run(name, func(t *testing.T) {
			if !s.TAS(2) {
				t.Fatal("first TAS lost")
			}
			for i := 0; i < 5; i++ {
				if s.TAS(2) {
					t.Fatal("second TAS won")
				}
			}
			if s.TAS(3) != true {
				t.Fatal("independent location affected")
			}
		})
	}
}

func TestIsSetAndReset(t *testing.T) {
	for name, s := range spaces(4) {
		t.Run(name, func(t *testing.T) {
			if s.IsSet(1) {
				t.Fatal("fresh location reads set")
			}
			s.TAS(1)
			if !s.IsSet(1) {
				t.Fatal("won location reads unset")
			}
			s.TryReset(1)
			if s.IsSet(1) {
				t.Fatal("reset location still set")
			}
		})
	}
}

func TestTryReset(t *testing.T) {
	for name, s := range spaces(4) {
		t.Run(name, func(t *testing.T) {
			if s.TryReset(2) {
				t.Fatal("TryReset won on an unset location")
			}
			s.TAS(2)
			if !s.TryReset(2) {
				t.Fatal("TryReset lost on a set location")
			}
			if s.TryReset(2) {
				t.Fatal("second TryReset won")
			}
			if !s.TAS(2) {
				t.Fatal("TAS after TryReset lost")
			}
		})
	}
}

// TestConcurrentTryResetSingleWinner is the release analogue of
// TestConcurrentSingleWinner: for a set location, exactly one of many
// racing TryReset calls may win.
func TestConcurrentTryResetSingleWinner(t *testing.T) {
	for name, s := range concurrentSpaces(64) {
		t.Run(name, func(t *testing.T) {
			const (
				locations  = 64
				goroutines = 32
			)
			for loc := 0; loc < locations; loc++ {
				s.TAS(loc)
			}
			winners := make([][]int32, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				winners[g] = make([]int32, locations)
				wg.Add(1)
				go func(mine []int32) {
					defer wg.Done()
					for loc := 0; loc < locations; loc++ {
						if s.TryReset(loc) {
							mine[loc] = 1
						}
					}
				}(winners[g])
			}
			wg.Wait()
			for loc := 0; loc < locations; loc++ {
				total := int32(0)
				for g := 0; g < goroutines; g++ {
					total += winners[g][loc]
				}
				if total != 1 {
					t.Errorf("location %d had %d TryReset winners, want 1", loc, total)
				}
			}
		})
	}
}

func TestLen(t *testing.T) {
	if got := NewDense(17).Len(); got != 17 {
		t.Errorf("Dense.Len() = %d, want 17", got)
	}
	if got := NewSparse().Len(); got != Unbounded {
		t.Errorf("Sparse.Len() = %d, want Unbounded", got)
	}
}

func TestNewDensePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(-1) did not panic")
		}
	}()
	NewDense(-1)
}

func TestSparseTouched(t *testing.T) {
	s := NewSparse()
	wins := 0
	for _, l := range []int{5, 1 << 40, 0, 5} { // the repeat must lose
		if s.TAS(l) {
			wins++
		}
	}
	set := 0
	for _, l := range []int{0, 1, 4, 5, 6, 1 << 40, 1<<40 + 1} {
		if s.IsSet(l) {
			set++
		}
	}
	if wins != 3 || set != 3 {
		t.Fatalf("%d wins and %d locations set, want 3 and 3", wins, set)
	}
}

func TestSparsePanicsOnNegativeLoc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sparse.TAS(-1) did not panic")
		}
	}()
	NewSparse().TAS(-1)
}

// TestConcurrentSingleWinner hammers every location from many goroutines and
// checks the fundamental TAS guarantee: exactly one winner per location.
func TestConcurrentSingleWinner(t *testing.T) {
	for name, s := range concurrentSpaces(64) {
		t.Run(name, func(t *testing.T) {
			const (
				locations  = 64
				goroutines = 32
			)
			winners := make([][]int32, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				winners[g] = make([]int32, locations)
				wg.Add(1)
				go func(mine []int32) {
					defer wg.Done()
					for loc := 0; loc < locations; loc++ {
						if s.TAS(loc) {
							mine[loc] = 1
						}
					}
				}(winners[g])
			}
			wg.Wait()
			for loc := 0; loc < locations; loc++ {
				total := int32(0)
				for g := 0; g < goroutines; g++ {
					total += winners[g][loc]
				}
				if total != 1 {
					t.Errorf("location %d had %d winners, want 1", loc, total)
				}
			}
		})
	}
}

// TestTASEpochSingleWinner sets and clears one cell many times over: G
// goroutines probe it and each winner hands it back with TryReset (all
// but the last win of each goroutine, so the run may end with the bit
// set). Every set epoch must have exactly one winner, so the wins equal
// the successful resets plus the final bit. A TAS that decided a win on
// its read, not its read-modify-write, would let two callers win one
// epoch.
func TestTASEpochSingleWinner(t *testing.T) {
	const (
		goroutines = 8
		probes     = 4000
	)
	for name, s := range concurrentSpaces(1) {
		t.Run(name, func(t *testing.T) {
			var wins, resets atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < probes; i++ {
						if !s.TAS(0) {
							continue
						}
						wins.Add(1)
						if i < probes-1 && s.TryReset(0) {
							resets.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			final := int64(0)
			if s.IsSet(0) {
				final = 1
			}
			if wins.Load() != resets.Load()+final {
				t.Fatalf("%d wins, %d resets, final bit %d: want wins = resets + final bit",
					wins.Load(), resets.Load(), final)
			}
			if resets.Load() == 0 {
				t.Fatal("no epoch was ever reset: the hammer exercised nothing")
			}
		})
	}
}

// TestSparseMatchesDense property-checks that every concurrent space
// agrees with Sparse, the single-threaded reference, on every outcome of
// an arbitrary sequence of TAS and TryReset calls (the top bit of a probe
// picks TryReset).
func TestSparseMatchesDense(t *testing.T) {
	property := func(probes []uint16) bool {
		const size = 256
		ref := NewSparse()
		concurrent := concurrentSpaces(size)
		for _, p := range probes {
			loc := int(p % size)
			op := func(s resettable) bool { return s.TAS(loc) }
			if p&0x8000 != 0 {
				op = func(s resettable) bool { return s.TryReset(loc) }
			}
			want := op(ref)
			for _, s := range concurrent {
				if op(s) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDenseTryBatchMatchesReference runs the probe kernel and the
// reference loop it replaces — r.Intn(size), then TAS(lo+x), t times or
// until a win — side by side on copies of one space. Batches start at 0
// and further in, have power-of-two and other sizes, are empty, half set
// or full, and get t from 1 to well past size. Every case must return the
// same location, leave the same locations set and the same PRNG state, and
// report as many draws as the reference loop made.
func TestDenseTryBatchMatchesReference(t *testing.T) {
	const pad = 5 // locations beyond the batch on the right, never probed
	for _, seed := range []uint64{1, 42, 0xdeadbeefcafef00d} {
		for _, geo := range []struct{ lo, size int }{{0, 1}, {0, 64}, {3, 7}, {11, 100}, {40, 257}} {
			for _, fill := range []string{"empty", "half", "full"} {
				for _, tries := range []int{1, 2, geo.size / 2, geo.size, 3*geo.size + 1} {
					if tries < 1 {
						continue
					}
					name := fmt.Sprintf("seed=%#x/lo=%d/size=%d/%s/t=%d", seed, geo.lo, geo.size, fill, tries)
					kernel, ref := NewDense(geo.lo+geo.size+pad), NewDense(geo.lo+geo.size+pad)
					for i := 0; i < geo.size; i++ {
						if fill == "full" || fill == "half" && i%2 == 1 {
							kernel.TAS(geo.lo + i)
							ref.TAS(geo.lo + i)
						}
					}
					kr, rr := xrand.NewStream(seed, uint64(geo.size)), xrand.NewStream(seed, uint64(geo.size))
					got, draws := kernel.TryBatch(kr, geo.lo, geo.size, tries)
					want, refDraws := -1, 0
					for refDraws < tries {
						refDraws++
						if x := geo.lo + rr.Intn(geo.size); ref.TAS(x) {
							want = x
							break
						}
					}
					if got != want {
						t.Fatalf("%s: kernel won %d, reference %d", name, got, want)
					}
					if draws != refDraws {
						t.Fatalf("%s: kernel reports %d draws, reference made %d", name, draws, refDraws)
					}
					if *kr != *rr {
						t.Fatalf("%s: kernel and reference leave different PRNG states", name)
					}
					for l := 0; l < kernel.Len(); l++ {
						if kernel.IsSet(l) != ref.IsSet(l) {
							t.Fatalf("%s: location %d is set in one of kernel and reference only", name, l)
						}
					}
					if fill == "full" && (got != -1 || draws != tries) {
						t.Fatalf("%s: full batch won %d in %d draws, want -1 after all %d", name, got, draws, tries)
					}
				}
			}
		}
	}
}

// TestDenseTryBatchSingleWinner hammers the kernel: 8 goroutines, each on
// its own stream, run probe batches over one small space — some over all
// of it, some over a window in the middle — until it is full. Every cell
// must be won exactly once.
func TestDenseTryBatchSingleWinner(t *testing.T) {
	const (
		goroutines = 8
		size       = 64
		batches    = 2000
	)
	d := NewDense(size)
	winners := make([][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		winners[g] = make([]int32, size)
		wg.Add(1)
		go func(mine []int32, r *xrand.Rand) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				lo, n := 0, size
				if i%2 == 1 {
					lo, n = size/4, size/2
				}
				if x, _ := d.TryBatch(r, lo, n, 1+i%4); x >= 0 {
					mine[x]++
				}
			}
		}(winners[g], xrand.NewStream(7, uint64(g)))
	}
	wg.Wait()
	for loc := 0; loc < size; loc++ {
		total := int32(0)
		for g := 0; g < goroutines; g++ {
			total += winners[g][loc]
		}
		if total != 1 {
			t.Errorf("location %d had %d winners, want 1", loc, total)
		}
	}
}

// TestDenseSharedWordSingleWinner gives each of 32 goroutines one bit
// of a single Dense word: round after round each sets its own bit with
// TAS, which must win, and clears it with TryReset, which must succeed.
// Every access races the other 31 bits' owners on the same word, so a
// TAS or TryReset that wrote the word back from a stale read, instead of
// ORing or ANDing its bit in atomically, would set or clear a
// neighbour's bit and fail that neighbour's next step.
func TestDenseSharedWordSingleWinner(t *testing.T) {
	const rounds = 20000
	d := NewDense(32)
	var wg sync.WaitGroup
	for own := 0; own < 32; own++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !d.TAS(own) {
					t.Errorf("round %d: TAS of location %d, owned by its caller, lost", i, own)
					return
				}
				if !d.TryReset(own) {
					t.Errorf("round %d: TryReset of location %d, owned by its caller, failed", i, own)
					return
				}
			}
		}()
	}
	wg.Wait()
	for l := 0; l < 32; l++ {
		if d.IsSet(l) {
			t.Errorf("location %d is set after every owner reset it", l)
		}
	}
}

// TestDenseOutOfRangePanics checks that a space whose last word is
// mostly spare bits still answers only for [0, Len()): every access at
// Len(), at the last word's top bit or below 0 panics, as does a probe
// batch over a range reaching past Len().
func TestDenseOutOfRangePanics(t *testing.T) {
	d := NewDense(33)
	if !d.TAS(32) || !d.IsSet(32) || !d.TryReset(32) {
		t.Fatal("location 32, the last in range, does not set and reset")
	}
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, loc := range []int{33, 63, -1} {
		panics(fmt.Sprintf("TAS(%d)", loc), func() { d.TAS(loc) })
		panics(fmt.Sprintf("IsSet(%d)", loc), func() { d.IsSet(loc) })
		panics(fmt.Sprintf("TryReset(%d)", loc), func() { d.TryReset(loc) })
	}
	r := xrand.New(1)
	panics("TryBatch(lo=30, size=4)", func() { d.TryBatch(r, 30, 4, 1) })
	panics("TryBatch(lo=-1, size=4)", func() { d.TryBatch(r, -1, 4, 1) })
}

func BenchmarkDenseTAS(b *testing.B) {
	d := NewDense(1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d.TAS(0)
		}
	})
}
