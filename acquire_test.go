package renaming

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
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
// sequential Acquire calls on NewReBatching(64, WithSeed(42)) hand out
// exactly these names; a change to either fails here.
func TestAcquirePinnedSequence(t *testing.T) {
	want := []int{
		55, 54, 53, 36, 23, 2, 12, 9, 46, 4, 31, 28, 32, 7, 50, 21,
		22, 37, 47, 40, 1, 25, 42, 16, 35, 43, 18, 58, 60, 19, 8, 39,
		24, 34, 45, 5, 57, 6, 14, 62, 20, 49, 48, 51, 17, 26, 41, 13,
		3, 63, 44, 30, 11, 61, 38, 29, 52, 27, 56, 33, 59, 15, 0, 10,
	}
	nm, err := NewReBatching(64, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		u, err := nm.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if u != w {
			t.Fatalf("call %d: Acquire() = %d, want %d", i, u, w)
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
