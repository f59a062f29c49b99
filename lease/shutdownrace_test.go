package lease

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// recordingObserver tallies observer events: name -> token per kind.
type recordingObserver struct {
	mu       sync.Mutex
	acquires map[int]uint64
	releases map[int]uint64
}

func (o *recordingObserver) ObserveAcquire(l Lease) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.acquires == nil {
		o.acquires = map[int]uint64{}
	}
	o.acquires[l.Name] = l.Token
}

func (o *recordingObserver) ObserveRenew(int, uint64, time.Time) {}

func (o *recordingObserver) ObserveRelease(name int, token uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.releases == nil {
		o.releases = map[int]uint64{}
	}
	o.releases[name] = token
}

func (o *recordingObserver) ObserveExpire(int, uint64) {}

func (o *recordingObserver) ObserveTable(Table) {}

// shutdownMidBatch catches a k-lease AcquireBatch between its stripes with
// Shutdown: over linearscan with two stripes the batch takes names 0..k-1,
// inserts the even ones into stripe 0 and parks on stripe 1's lock, which
// the test holds, while Shutdown flips closed. It returns the batch's
// leases and what Shutdown's caller read on its return, after checking
// that Shutdown waited for the batch and that nothing moves afterwards.
func shutdownMidBatch(t *testing.T, obs Observer, k int) (leases []Lease, occupied int, reserved int64) {
	t.Helper()
	nm, err := renaming.NewLinearScan(16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: -1, Shards: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	m.shards[1].mu.Lock()
	type result struct {
		leases []Lease
		err    error
	}
	batch := make(chan result, 1)
	go func() {
		ls, err := m.AcquireBatch(context.Background(), "race", k, 0, nil)
		batch <- result{ls, err}
	}()
	for {
		if _, n := tableStats(m, 0); n == (k+1)/2 {
			break
		}
		runtime.Gosched()
	}
	type snapshot struct {
		occupied int
		reserved int64
	}
	// The snapshot needs stripe 1's lock too, so Shutdown's return is
	// signalled on its own.
	returned, atShutdown := make(chan struct{}), make(chan snapshot, 1)
	go func() {
		m.Shutdown()
		close(returned)
		atShutdown <- snapshot{m.Occupied(), m.Metrics().Reserved}
	}()
	for !m.closed.Load() {
		runtime.Gosched()
	}
	select {
	case <-returned:
		t.Fatal("Shutdown returned with a batch still between its stripes")
	case <-time.After(20 * time.Millisecond):
	}
	m.shards[1].mu.Unlock()
	var at snapshot
	select {
	case at = <-atShutdown:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned after the batch was let go")
	}
	r := <-batch
	if r.err != nil || len(r.leases) != k {
		t.Fatalf("AcquireBatch caught by Shutdown = %d leases, %v; want all %d", len(r.leases), r.err, k)
	}
	if o, res := m.Occupied(), m.Metrics().Reserved; o != at.occupied || res != at.reserved {
		t.Fatalf("table moved after Shutdown returned: occupied %d -> %d, reserved %d -> %d", at.occupied, o, at.reserved, res)
	}
	if _, err := acquire1(m, "late", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("AcquireBatch after Shutdown = %v, want ErrClosed", err)
	}
	return r.leases, at.occupied, at.reserved
}

// TestAcquireBatchShutdownRaceCompletesBatch pins the barrier with an
// observer: a batch admitted before Shutdown inserts and journals all k
// leases, releases nothing, and Shutdown returns only after that — so a
// store closed next holds exactly what the caller was granted.
func TestAcquireBatchShutdownRaceCompletesBatch(t *testing.T) {
	const k = 6
	obs := &recordingObserver{}
	leases, occupied, reserved := shutdownMidBatch(t, obs, k)
	if occupied != k || reserved != k {
		t.Fatalf("at Shutdown's return: %d occupied, %d reserved; want %d, %d", occupied, reserved, k, k)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.acquires) != k || len(obs.releases) != 0 {
		t.Fatalf("observer saw %d acquires, %d releases; want %d, 0", len(obs.acquires), len(obs.releases), k)
	}
	for _, l := range leases {
		if tok, ok := obs.acquires[l.Name]; !ok || tok != l.Token {
			t.Fatalf("name %d granted with token %d, journaled with %d (seen %v)", l.Name, l.Token, tok, ok)
		}
	}
}

// TestShutdownRaceWithoutObserver pins the same barrier for a manager
// with no observer: the table and the capacity counter a caller reads
// once Shutdown returns already hold the whole batch. The barrier used to
// be skipped without an observer.
func TestShutdownRaceWithoutObserver(t *testing.T) {
	const k = 6
	_, occupied, reserved := shutdownMidBatch(t, nil, k)
	if occupied != k || reserved != k {
		t.Fatalf("at Shutdown's return: %d occupied, %d reserved; want %d, %d", occupied, reserved, k, k)
	}
}

// TestAcquireBatchShutdownRace races batches against Shutdown: each
// racing batch is either refused at entry with nothing reserved, or fully
// granted, so afterwards the table, the reservation counter and the
// granted leases agree exactly.
func TestAcquireBatchShutdownRace(t *testing.T) {
	const capacity, batch = 64, 8
	nm, err := renaming.NewLevelArray(capacity)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: -1, MaxLive: capacity})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		granted int
		wg      sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ls, err := m.AcquireBatch(context.Background(), "w", batch, 0, nil)
				switch {
				case errors.Is(err, ErrClosed):
					return
				case err == nil && len(ls) != batch:
					t.Errorf("batch granted %d of %d leases", len(ls), batch)
				case err == nil:
					mu.Lock()
					granted += len(ls)
					mu.Unlock()
					// Hand half the batches back so the race keeps granting.
					if ls[0].Name%2 == 0 {
						for _, l := range ls {
							if err := release1(m, l.Name, l.Token); err != nil && !errors.Is(err, ErrClosed) {
								t.Errorf("release %d: %v", l.Name, err)
							}
						}
					}
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	m.Shutdown()
	occupied, reserved := m.Occupied(), m.Metrics().Reserved
	wg.Wait()
	mt := m.Metrics()
	if int64(occupied) != reserved || int64(granted) != mt.Acquired || mt.Acquired-mt.Released != reserved {
		t.Fatalf("after Shutdown: %d occupied, %d reserved, %d granted, metrics %+v; want occupied = reserved = acquired - released",
			occupied, reserved, granted, mt)
	}
	if o := m.Occupied(); o != occupied {
		t.Fatalf("table moved after Shutdown returned: occupied %d -> %d", occupied, o)
	}
}
