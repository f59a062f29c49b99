package renaming

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/tas"
	"repro/internal/xrand"
)

// blockingAlg spins without probing until the environment reports an
// interrupt — a stand-in for an acquisition blocked mid-probe-sequence.
type blockingAlg struct {
	entered chan struct{} // closed once GetName is running
}

func (b *blockingAlg) GetName(env core.Env) int {
	close(b.entered)
	for !core.Interrupted(env) {
		time.Sleep(100 * time.Microsecond)
	}
	return core.Cancelled
}

func (b *blockingAlg) Namespace() int { return 8 }

// TestCancelMidAcquisition is the blocked-acquire contract: an Acquire
// stuck inside its probe sequence must return ErrCancelled wrapping
// ctx.Err() as soon as the context is cancelled, and must not leave any
// TAS slot set.
func TestCancelMidAcquisition(t *testing.T) {
	alg := &blockingAlg{entered: make(chan struct{})}
	nm := newNamer(alg, defaultOptions())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := nm.Acquire(ctx)
		done <- err
	}()

	<-alg.entered // the acquire is provably mid-probe-sequence
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want it to wrap context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Acquire never returned")
	}

	// No slot leaked: every location in the space is still unset.
	for u := 0; u < alg.Namespace(); u++ {
		if err := nm.Release(u); !errors.Is(err, ErrNotHeld) {
			t.Fatalf("slot %d set after cancelled acquire (Release err = %v)", u, err)
		}
	}
}

// raceWinAlg wins a TAS, then blocks until interrupted and returns the won
// slot anyway — modelling the race window where a probe succeeds at the
// same instant the context is cancelled.
type raceWinAlg struct{}

func (raceWinAlg) GetName(env core.Env) int {
	if !env.TAS(3) {
		return core.NoName
	}
	for !core.Interrupted(env) {
		time.Sleep(100 * time.Microsecond)
	}
	return 3
}

func (raceWinAlg) Namespace() int { return 8 }

// TestCancelAfterWinReleasesSlot covers the other half of the no-leak
// contract: when the algorithm returns a won slot but the context has
// already ended, the driver must hand the slot back and report
// ErrCancelled — not return a name the caller will never use.
func TestCancelAfterWinReleasesSlot(t *testing.T) {
	nm := newNamer(raceWinAlg{}, defaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := nm.Acquire(ctx)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel()
	err := <-done
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if err := nm.Release(3); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("won slot not handed back after cancellation (Release err = %v)", err)
	}
}

// TestCancelMidBatchRollsBack cancels an AcquireN between acquisitions:
// the batch must fail with ErrCancelled and hand back every name it had
// already taken.
func TestCancelMidBatchRollsBack(t *testing.T) {
	// cancelAfterAlg wraps a linear scan and fires cancel() after the
	// third successful acquisition, so the batch fails with three names in
	// hand.
	ctx, cancel := context.WithCancel(context.Background())
	alg := &cancelAfterAlg{limit: 3, cancel: cancel, m: 16}
	nm := newNamer(alg, defaultOptions())

	_, err := nm.AcquireN(ctx, 10)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	for u := 0; u < alg.m; u++ {
		if err := nm.Release(u); !errors.Is(err, ErrNotHeld) {
			t.Fatalf("slot %d still set after batch rollback (Release err = %v)", u, err)
		}
	}
	// The namer is unharmed: a fresh batch gets all ten names.
	names, err := nm.AcquireN(context.Background(), 10)
	if err != nil {
		t.Fatalf("fresh batch after rollback: %v", err)
	}
	if len(names) != 10 {
		t.Fatalf("fresh batch granted %d names, want 10", len(names))
	}
}

// cancelAfterAlg linear-scans its space and cancels the context after
// `limit` wins.
type cancelAfterAlg struct {
	limit  int
	wins   int
	cancel context.CancelFunc
	m      int
}

func (c *cancelAfterAlg) GetName(env core.Env) int {
	for u := 0; u < c.m; u++ {
		if env.TAS(u) {
			c.wins++
			if c.wins == c.limit {
				c.cancel()
			}
			return u
		}
	}
	return core.NoName
}

func (c *cancelAfterAlg) Namespace() int { return c.m }

// TestAcquireNSingleStream checks the amortization claim: a batch of k
// names consumes one PRNG stream, where k individual Acquires consume k.
func TestAcquireNSingleStream(t *testing.T) {
	nm, err := NewReBatching(64, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	before := nm.stream.Load()
	if _, err := nm.AcquireN(context.Background(), 16); err != nil {
		t.Fatal(err)
	}
	if got := nm.stream.Load() - before; got != 1 {
		t.Fatalf("batch of 16 consumed %d PRNG streams, want 1", got)
	}
	before = nm.stream.Load()
	for i := 0; i < 16; i++ {
		if _, err := nm.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := nm.stream.Load() - before; got != 16 {
		t.Fatalf("16 single acquires consumed %d PRNG streams, want 16", got)
	}
}

// TestAcquirePinnedSequence pins stream derivation and probe order:
// sequential Acquire calls on each namer at n = 64 with WithSeed(42) hand
// out exactly these names; a change to either fails here. The cost of a
// probe may change, the names a seed yields may not.
func TestAcquirePinnedSequence(t *testing.T) {
	for _, tc := range []struct {
		driver string
		want   []int
	}{
		{"rebatching", []int{
			55, 54, 53, 36, 23, 2, 12, 9, 46, 4, 31, 28, 32, 7, 50, 21,
			22, 37, 47, 40, 1, 25, 42, 16, 35, 43, 18, 58, 60, 19, 8, 39,
			24, 34, 45, 5, 57, 6, 14, 62, 20, 49, 48, 51, 17, 26, 41, 13,
			3, 63, 44, 30, 11, 61, 38, 29, 52, 27, 56, 33, 59, 15, 0, 10,
		}},
		{"adaptive", []int{
			1, 0, 5, 7, 6, 4, 8, 9, 14, 16, 12, 17, 15, 18, 13, 19,
			22, 24, 20, 25, 35, 23, 39, 36, 47, 55, 54, 44, 21, 49, 75, 48,
			51, 45, 53, 77, 60, 46, 50, 66, 61, 90, 89, 88, 83, 81, 62, 71,
			72, 86, 87, 73, 63, 70, 78, 68, 65, 85, 79, 67, 74, 76, 80, 82,
		}},
		{"fastadaptive", []int{
			5, 4, 9, 11, 10, 8, 13, 12, 18, 20, 16, 17, 19, 22, 21, 23,
			24, 25, 28, 26, 29, 34, 50, 54, 57, 27, 53, 49, 51, 58, 56, 82,
			59, 93, 64, 91, 76, 74, 88, 52, 67, 77, 90, 70, 73, 87, 65, 86,
			92, 85, 48, 66, 69, 89, 94, 68, 75, 72, 83, 79, 78, 84, 71, 95,
		}},
		{"levelarray", []int{
			111, 108, 107, 73, 47, 4, 25, 19, 92, 9, 63, 57, 65, 14, 100, 42,
			45, 64, 95, 80, 3, 51, 72, 50, 70, 5, 36, 37, 120, 39, 16, 79,
			43, 69, 173, 86, 8, 12, 2, 125, 94, 99, 28, 96, 34, 124, 121, 18,
			83, 15, 106, 61, 168, 46, 122, 127, 177, 97, 103, 7, 118, 126, 71, 165,
		}},
	} {
		t.Run(tc.driver, func(t *testing.T) {
			nm, err := Open(tc.driver + "?n=64&seed=42")
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range tc.want {
				u, err := nm.Acquire(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if u != w {
					t.Fatalf("call %d: Acquire() = %d, want %d", i, u, w)
				}
			}
		})
	}
}

// refEnv is a plain core.Env that counts TAS steps: probe batches run
// core.TryBatch's reference loop through it.
type refEnv struct {
	space tas.Space
	rng   xrand.Rand
	steps int64
}

func (e *refEnv) TAS(loc int) bool {
	e.steps++
	return e.space.TAS(loc)
}

func (e *refEnv) Intn(n int) int { return e.rng.Intn(n) }

// TestDriverTryBatchMatchesReference drains each one-shot namer through
// the driver's own environment, with and without counting, and replays
// every acquisition through a refEnv over a fresh space on the same
// stream. Each must get the same name, leave its PRNG in the same state
// and tally the same number of TAS steps. Counting happens in the
// environment, so both arms run one probe path; the counting arm also
// checks that tally adds exactly those steps to the namer's counters.
func TestDriverTryBatchMatchesReference(t *testing.T) {
	const n, seed = 256, 9
	for _, alg := range []core.Algorithm{
		core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1}),
		core.MustAdaptive(core.AdaptiveConfig{Epsilon: 1, MaxLevel: core.MaxLevelFor(n)}),
		core.MustFastAdaptive(core.FastAdaptiveConfig{MaxLevel: core.MaxLevelFor(n)}),
	} {
		for _, counting := range []bool{false, true} {
			t.Run(fmt.Sprintf("%T/counting=%v", alg, counting), func(t *testing.T) {
				nm := newNamer(alg, options{seed: seed, counting: counting})
				if nm.dense == nil {
					t.Fatal("namer over a Dense space has no dense kernel")
				}
				ref := tas.NewDense(alg.Namespace())
				for p := uint64(1); ; p++ {
					env := nm.env(nil)
					ops0, wins0 := nm.ops.Load(), nm.wins.Load()
					u := alg.GetName(env)
					r := &refEnv{space: ref, rng: xrand.MakeStream(seed, p)}
					if v := alg.GetName(r); u != v || env.rng != r.rng {
						t.Fatalf("acquisition %d: driver got %d, reference %d, or their PRNG states differ", p, u, v)
					}
					if env.steps != r.steps {
						t.Fatalf("acquisition %d: driver tallied %d TAS steps, reference %d", p, env.steps, r.steps)
					}
					won := 0
					if u != core.NoName {
						won = 1
					}
					nm.tally(env, won)
					wantOps, wantWins := int64(0), int64(0)
					if counting {
						wantOps, wantWins = r.steps, int64(won)
					}
					if d := nm.ops.Load() - ops0; d != wantOps {
						t.Fatalf("acquisition %d: namer counted %d probes, want %d", p, d, wantOps)
					}
					if d := nm.wins.Load() - wins0; d != wantWins {
						t.Fatalf("acquisition %d: namer counted %d wins, want %d", p, d, wantWins)
					}
					if u == core.NoName {
						break
					}
				}
			})
		}
	}
}

// TestCountingGrantsSameNames drains each namer on one seed with and
// without counting=1: counting changes nothing but the counters, so both
// grant the same names in order. Only the counted one reports probes, and
// it reports a win for each name.
func TestCountingGrantsSameNames(t *testing.T) {
	for _, driver := range []string{"rebatching", "adaptive", "fastadaptive", "uniform", "levelarray"} {
		var drains [2][]int
		var nm Namer
		for i, dsn := range []string{driver + "?n=64&seed=5", driver + "?n=64&seed=5&counting=1"} {
			var err error
			if nm, err = Open(dsn); err != nil {
				t.Fatal(err)
			}
			for u, err := nm.Acquire(context.Background()); err == nil; u, err = nm.Acquire(context.Background()) {
				drains[i] = append(drains[i], u)
			}
			if _, _, ok := nm.(interface{ Probes() (int64, int64, bool) }).Probes(); ok != (i == 1) {
				t.Errorf("%s: Probes() ok = %v with counting = %v", dsn, ok, i == 1)
			}
		}
		ops, wins, _ := nm.(interface{ Probes() (int64, int64, bool) }).Probes()
		if !slices.Equal(drains[0], drains[1]) || wins != int64(len(drains[1])) || ops < wins {
			t.Errorf("%s: plain drain %v, counted drain %v in %d ops %d wins", driver, drains[0], drains[1], ops, wins)
		}
	}
}

// TestAcquireAllocs pins the concurrent driver's allocation cost: on a
// namer a quarter full, an Acquire allocates exactly once — its
// environment, which carries the PRNG stream by value. FastAdaptive's
// doubling sequence stays on the stack. The environment must also stay
// in the 64-byte size class.
func TestAcquireAllocs(t *testing.T) {
	if size := unsafe.Sizeof(concurrentEnv{}); size > 64 {
		t.Fatalf("concurrentEnv is %d bytes, want <= 64", size)
	}
	const n = 1 << 14
	ctx := context.Background()
	for _, driver := range []string{"rebatching", "adaptive", "fastadaptive", "levelarray"} {
		t.Run(driver, func(t *testing.T) {
			nm, err := Open(fmt.Sprintf("%s?n=%d&seed=1", driver, n))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nm.AcquireN(ctx, n/4); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(100, func() {
				if _, err := nm.Acquire(ctx); err != nil {
					t.Fatal(err)
				}
			}); got != 1 {
				t.Fatalf("Acquire allocates %v times per call, want 1", got)
			}
		})
	}
}

// TestOpenFootprint pins the heap bytes a one-shot Open allocates, at
// the sizes of the two one-shot workloads. Dense spends one bit per TAS
// location, so an Open is its namespace/8 bytes of words plus a few KiB
// of algorithm tables and driver: 16,952 B for rebatching and about
// 19.9 KB for the adaptive pair on go1.24/amd64. The pin is a band, since
// size classes move with the toolchain: at least the bits themselves, at
// most 24 KiB. One int32 per location, as Dense once was, read ~525 KB.
func TestOpenFootprint(t *testing.T) {
	const ceiling = 24 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, dsn := range []string{"rebatching?n=65536", "adaptive?n=16384", "fastadaptive?n=16384"} {
		var bits int
		allocated := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ { // the least of three, against stray allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			nm, err := Open(dsn)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			bits, allocated = nm.Namespace(), min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if allocated < uint64(bits/8) || allocated > ceiling {
			t.Errorf("Open(%q) allocates %d B, want within [%d, %d]: the namespace's bits plus tables", dsn, allocated, bits/8, ceiling)
		}
	}
}

// TestAcquireCancelledUnderRace exercises real namers with contexts that
// cancel at random points while concurrent acquisitions run; meant for
// -race. Invariant: after all cancelled/successful calls settle and every
// successful name is released, the full capacity is grantable again.
func TestAcquireCancelledUnderRace(t *testing.T) {
	nm, err := NewLevelArray(64, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	type result struct {
		name int
		ok   bool
	}
	results := make(chan result, workers*8)
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var pending int
		for w := 0; w < workers; w++ {
			pending++
			go func() {
				u, err := nm.Acquire(ctx)
				if err != nil {
					if !errors.Is(err, ErrCancelled) {
						t.Errorf("unexpected acquire error: %v", err)
					}
					results <- result{ok: false}
					return
				}
				results <- result{name: u, ok: true}
			}()
		}
		cancel()
		for i := 0; i < pending; i++ {
			r := <-results
			if r.ok {
				if err := nm.Release(r.name); err != nil {
					t.Fatalf("release %d: %v", r.name, err)
				}
			}
		}
	}
	// Every slot must be free again.
	names, err := nm.AcquireN(context.Background(), 64)
	if err != nil {
		t.Fatalf("full-capacity batch after cancel storms: %v", err)
	}
	if len(names) != 64 {
		t.Fatalf("granted %d, want 64", len(names))
	}
}
