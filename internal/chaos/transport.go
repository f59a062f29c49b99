package chaos

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/leaseclient"
)

// TransportFaults configures call-level misbehavior: whole protocol
// calls duplicated or deferred, above any wire-level corruption the
// proxy injects. Duplication targets renew and release only — the
// operations whose token guards make them idempotent by contract. A
// duplicated ACQUIRE would mint a real server-side lease no session
// tracks; that is a client bug, not a fault, so the wrapper never
// does it.
type TransportFaults struct {
	// DupRenew re-sends a RenewBatch before returning the second
	// result — the retransmit-after-lost-response pattern.
	DupRenew float64
	// DupRelease re-sends a ReleaseBatch the same way. The second copy
	// must come back all unknown_name/expired, never a fresh success.
	DupRelease float64
	// Defer holds a call for a uniform [0, DeferMax] pause before
	// issuing it, shuffling this session's calls against every other
	// session's — cross-session reordering at the call level.
	Defer    float64
	DeferMax time.Duration
}

// TransportStats counts injected call-level faults.
type TransportStats struct {
	DupRenews   int64
	DupReleases int64
	Deferred    int64
}

// FaultTransport wraps a real transport with TransportFaults. All
// decisions come from one seeded stream (guarded by a mutex — the
// Session serializes its calls anyway, the lock is for AcquireN racing
// a heartbeat).
type FaultTransport struct {
	inner  leaseclient.Transport
	f      TransportFaults
	active *atomic.Bool

	mu sync.Mutex
	r  *rand.Rand

	dupRenews   atomic.Int64
	dupReleases atomic.Int64
	deferred    atomic.Int64
}

// WrapTransport layers call-level faults over inner. active gates the
// faults (nil means always on); the scenario shares one flag between
// the proxy and every wrapper so the heal phase silences everything at
// once. The decision stream is a pure function of (seed, label).
func WrapTransport(inner leaseclient.Transport, seed uint64, label string, f TransportFaults, active *atomic.Bool) *FaultTransport {
	if f.Defer > 0 && f.DeferMax == 0 {
		f.DeferMax = 50 * time.Millisecond
	}
	return &FaultTransport{inner: inner, f: f, active: active, r: rng(seed, "transport/"+label)}
}

// Stats snapshots the fault counters.
func (t *FaultTransport) Stats() TransportStats {
	return TransportStats{
		DupRenews:   t.dupRenews.Load(),
		DupReleases: t.dupReleases.Load(),
		Deferred:    t.deferred.Load(),
	}
}

// draw makes this call's decisions in fixed order.
func (t *FaultTransport) draw() (dup bool, dupRelease bool, wait time.Duration) {
	t.mu.Lock()
	dupDraw := t.r.Float64()
	dupRelDraw := t.r.Float64()
	deferDraw := t.r.Float64()
	amtDraw := t.r.Float64()
	t.mu.Unlock()
	if t.active != nil && !t.active.Load() {
		return false, false, 0
	}
	if deferDraw < t.f.Defer {
		wait = time.Duration(amtDraw * float64(t.f.DeferMax))
	}
	return dupDraw < t.f.DupRenew, dupRelDraw < t.f.DupRelease, wait
}

func (t *FaultTransport) pause(ctx context.Context, wait time.Duration) {
	if wait <= 0 {
		return
	}
	t.deferred.Add(1)
	select {
	case <-ctx.Done():
	case <-time.After(wait):
	}
}

func (t *FaultTransport) AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) (wire.Leases, error) {
	_, _, wait := t.draw()
	t.pause(ctx, wait)
	return t.inner.AcquireBatch(ctx, req)
}

func (t *FaultTransport) RenewBatch(ctx context.Context, req *wire.RenewBatchRequest) (wire.BatchResults, error) {
	dup, _, wait := t.draw()
	t.pause(ctx, wait)
	if dup {
		t.dupRenews.Add(1)
		// First copy's result is discarded — the retransmit case where
		// the response was lost. The SECOND response is what the session
		// acts on, so the server must answer a duplicate identically.
		t.inner.RenewBatch(ctx, req)
	}
	return t.inner.RenewBatch(ctx, req)
}

func (t *FaultTransport) ReleaseBatch(ctx context.Context, req *wire.ReleaseBatchRequest) (wire.BatchResults, error) {
	_, dup, wait := t.draw()
	t.pause(ctx, wait)
	res, err := t.inner.ReleaseBatch(ctx, req)
	if dup && err == nil {
		t.dupReleases.Add(1)
		// Replay AFTER a successful release: the duplicate must be
		// refused (unknown/expired), and the session must not see it —
		// the first (successful) verdict is returned.
		t.inner.ReleaseBatch(ctx, req)
	}
	return res, err
}

func (t *FaultTransport) Close() error { return t.inner.Close() }
