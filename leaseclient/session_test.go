package leaseclient

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/lease"
)

// fakeServer speaks just enough of the renamed /v1 wire protocol to
// drive a Session, with failure injection the real server can't provide
// on demand: scripted 503s on renew_batch (transient-outage shape) and
// token hijacks (fencing-loss shape). Protocol conformance against the
// real server is covered by cmd/renamed's session integration test and
// the CI live smoke; these tests cover the client's own behavior.
type fakeServer struct {
	t *testing.T

	mu        sync.Mutex
	leases    map[int]*fakeLease
	nextName  int
	nextToken uint64
	ttl       time.Duration // applied when a request carries no ttl_ms

	renewCalls   atomic.Int64 // renew_batch round trips
	renewItems   atomic.Int64 // items across those round trips
	releaseCalls atomic.Int64 // release_batch round trips
	failRenews   atomic.Int32 // 503 the next N renew_batch calls

	srv *httptest.Server
}

type fakeLease struct {
	token     uint64
	expiresAt time.Time
}

func newFakeServer(t *testing.T, ttl time.Duration) *fakeServer {
	t.Helper()
	f := &fakeServer{t: t, leases: make(map[int]*fakeLease), ttl: ttl}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/acquire_batch", f.handleAcquireBatch)
	mux.HandleFunc("POST /v1/renew_batch", f.handleRenewBatch)
	mux.HandleFunc("POST /v1/release_batch", f.handleReleaseBatch)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeServer) url() string { return f.srv.URL }

func (f *fakeServer) ttlFor(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return f.ttl
}

// grant mints one lease. Callers hold f.mu.
func (f *fakeServer) grant(ttlMs int64) wire.Lease {
	f.nextName++
	f.nextToken++
	exp := time.Now().Add(f.ttlFor(ttlMs))
	f.leases[f.nextName] = &fakeLease{token: f.nextToken, expiresAt: exp}
	return wire.Lease{Name: f.nextName, Token: f.nextToken, ExpiresAtMs: exp.UnixMilli()}
}

// hijack invalidates a lease's token, as a competing holder would after
// the server reassigned the name.
func (f *fakeServer) hijack(name int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l, ok := f.leases[name]; ok {
		l.token += 1000
	}
}

// liveCount reports how many unexpired leases the server still holds.
func (f *fakeServer) liveCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	now := time.Now()
	for _, l := range f.leases {
		if now.Before(l.expiresAt) {
			n++
		}
	}
	return n
}

func (f *fakeServer) handleAcquireBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.AcquireBatchRequest
	json.NewDecoder(r.Body).Decode(&req)
	out := wire.Leases{Leases: make([]wire.Lease, req.Count)}
	f.mu.Lock()
	for i := range out.Leases {
		out.Leases[i] = f.grant(req.TTLms)
	}
	f.mu.Unlock()
	json.NewEncoder(w).Encode(out)
}

func (f *fakeServer) handleRenewBatch(w http.ResponseWriter, r *http.Request) {
	if f.failRenews.Load() > 0 {
		f.failRenews.Add(-1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(wire.Error{Error: "scripted outage"})
		return
	}
	var req wire.RenewBatchRequest
	json.NewDecoder(r.Body).Decode(&req)
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(req.Items))}
	now := time.Now()
	f.mu.Lock()
	// Counted inside the critical section so a reader never observes the
	// call/item counters mid-update (renewItems must stay a multiple of
	// the batch size whenever renewCalls is read alongside it).
	f.renewCalls.Add(1)
	f.renewItems.Add(int64(len(req.Items)))
	for i, it := range req.Items {
		l, ok := f.leases[it.Name]
		switch {
		case !ok:
			out.Results[i] = wire.BatchResult{Error: "no lease", Code: wire.CodeUnknownName}
		case l.token != it.Token:
			out.Results[i] = wire.BatchResult{Error: "token mismatch", Code: wire.CodeWrongToken}
		case now.After(l.expiresAt):
			delete(f.leases, it.Name)
			out.Results[i] = wire.BatchResult{Error: "expired", Code: wire.CodeExpired}
		default:
			l.expiresAt = now.Add(f.ttlFor(req.TTLms))
			wl := wire.Lease{Name: it.Name, Token: it.Token, ExpiresAtMs: l.expiresAt.UnixMilli()}
			out.Results[i].Lease = &wl
		}
	}
	f.mu.Unlock()
	json.NewEncoder(w).Encode(out)
}

func (f *fakeServer) handleReleaseBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.ReleaseBatchRequest
	json.NewDecoder(r.Body).Decode(&req)
	f.releaseCalls.Add(1)
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(req.Items))}
	f.mu.Lock()
	for i, it := range req.Items {
		l, ok := f.leases[it.Name]
		switch {
		case !ok:
			out.Results[i] = wire.BatchResult{Error: "no lease", Code: wire.CodeUnknownName}
		case l.token != it.Token:
			out.Results[i] = wire.BatchResult{Error: "token mismatch", Code: wire.CodeWrongToken}
		default:
			delete(f.leases, it.Name)
		}
	}
	f.mu.Unlock()
	json.NewEncoder(w).Encode(out)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionHeartbeatKeepsLeasesAlive: a session holding many leases
// with a short TTL must keep every one alive through coalesced batch
// renewals — one round trip per heartbeat, not one per lease.
func TestSessionHeartbeatKeepsLeasesAlive(t *testing.T) {
	f := newFakeServer(t, 30*time.Second)
	var lost atomic.Int64
	s, err := NewSession(Config{
		Target: f.url(),
		Owner:  "hb",
		TTL:    400 * time.Millisecond,
		OnLost: func(int, error) { lost.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 8
	if _, err := s.AcquireN(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	// Live across 4+ TTLs: only repeated renewals can explain survival.
	// Wait on the CLIENT-side counter — the server counts a round trip on
	// entry, before the client has processed (or even received) the
	// response, so gating on f.renewCalls would race the last round.
	waitFor(t, 5*time.Second, "4 heartbeat rounds", func() bool { return s.Stats().Renewed >= 4*k })
	if got := f.liveCount(); got != k {
		t.Fatalf("server-side live leases = %d, want %d", got, k)
	}
	if lost.Load() != 0 {
		t.Fatalf("OnLost fired %d times with on-time renewals", lost.Load())
	}
	f.mu.Lock()
	calls, items := f.renewCalls.Load(), f.renewItems.Load()
	f.mu.Unlock()
	if items != k*calls {
		t.Fatalf("renewed %d items over %d calls, want %d per call (coalesced)", items, calls, k)
	}
	if st := s.Stats(); st.Lost != 0 {
		t.Fatalf("stats = %+v, want 0 lost", st)
	}
}

// TestSessionOnLostTyped: a fencing rejection drops exactly the hijacked
// lease, reports it through OnLost with an errors.Is-able cause, and
// leaves the session's other leases heartbeating.
func TestSessionOnLostTyped(t *testing.T) {
	f := newFakeServer(t, 30*time.Second)
	type lostEvent struct {
		name int
		err  error
	}
	lostCh := make(chan lostEvent, 4)
	s, err := NewSession(Config{
		Target: f.url(),
		Owner:  "victim",
		TTL:    300 * time.Millisecond,
		OnLost: func(name int, err error) { lostCh <- lostEvent{name, err} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ls, err := s.AcquireN(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	f.hijack(ls[0].Name)

	var ev lostEvent
	select {
	case ev = <-lostCh:
	case <-time.After(5 * time.Second):
		t.Fatal("OnLost never fired for the hijacked lease")
	}
	if ev.name != ls[0].Name {
		t.Fatalf("lost name = %d, want %d", ev.name, ls[0].Name)
	}
	if !errors.Is(ev.err, lease.ErrWrongToken) {
		t.Fatalf("lost err = %v, want errors.Is ErrWrongToken", ev.err)
	}
	// The survivor is still held and still renewed.
	waitFor(t, 5*time.Second, "survivor renewal", func() bool { return s.Stats().Renewed >= 3 })
	held := s.Leases()
	if len(held) != 1 || held[0].Name != ls[1].Name {
		t.Fatalf("held after loss = %+v, want only %d", held, ls[1].Name)
	}
	if got := s.Stats().Lost; got != 1 {
		t.Fatalf("Stats.Lost = %d, want 1", got)
	}
	select {
	case ev := <-lostCh:
		t.Fatalf("spurious second OnLost: %+v", ev)
	default:
	}
}

// TestSessionRetriesTransientFailures: scripted 503s on the heartbeat
// path must be retried with backoff inside the TTL budget — the lease
// survives the outage and OnLost never fires.
func TestSessionRetriesTransientFailures(t *testing.T) {
	f := newFakeServer(t, 30*time.Second)
	var lost atomic.Int64
	s, err := NewSession(Config{
		Target: f.url(),
		Owner:  "flaky",
		TTL:    time.Second,
		OnLost: func(int, error) { lost.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.failRenews.Store(2) // the next two heartbeat rounds hit an outage

	waitFor(t, 10*time.Second, "recovery renewals", func() bool { return f.renewCalls.Load() >= 3 })
	if got := f.liveCount(); got != 1 {
		t.Fatalf("server-side live leases = %d after outage, want 1", got)
	}
	if lost.Load() != 0 {
		t.Fatalf("OnLost fired %d times across a transient outage", lost.Load())
	}
	if st := s.Stats(); st.Retries < 1 {
		t.Fatalf("stats = %+v, want >= 1 retry recorded", st)
	}
}

// TestSessionCloseReleasesEverything: Close must hand back every held
// lease in one release_batch round trip and make further operations
// fail with ErrSessionClosed.
func TestSessionCloseReleasesEverything(t *testing.T) {
	f := newFakeServer(t, 30*time.Second)
	s, err := NewSession(Config{Target: f.url(), Owner: "closer", TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	if _, err := s.AcquireN(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := f.liveCount(); got != 0 {
		t.Fatalf("server still holds %d leases after Close", got)
	}
	if calls := f.releaseCalls.Load(); calls != 1 {
		t.Fatalf("release_batch calls = %d, want 1 (batched shutdown)", calls)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Acquire(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrSessionClosed", err)
	}
	if err := s.Release(context.Background(), 1); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Release after Close = %v, want ErrSessionClosed", err)
	}
}

// TestSessionReleaseStopsHeartbeating: an explicitly released lease
// leaves the heartbeat set immediately.
func TestSessionReleaseStopsHeartbeating(t *testing.T) {
	f := newFakeServer(t, 30*time.Second)
	s, err := NewSession(Config{Target: f.url(), Owner: "rel", TTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ls, err := s.AcquireN(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(context.Background(), ls[0].Name); err != nil {
		t.Fatal(err)
	}
	if held := s.Leases(); len(held) != 1 {
		t.Fatalf("held = %+v, want 1 lease", held)
	}
	if err := s.Release(context.Background(), ls[0].Name); err == nil {
		t.Fatal("releasing a non-held name succeeded")
	}
	// Subsequent heartbeats carry only the survivor.
	before := f.renewCalls.Load()
	waitFor(t, 5*time.Second, "post-release heartbeat", func() bool { return f.renewCalls.Load() > before })
	if items, calls := f.renewItems.Load(), f.renewCalls.Load(); items >= 2*calls {
		t.Fatalf("%d items over %d calls: released lease still heartbeated", items, calls)
	}
}

// TestSessionConfigValidation: a missing target, and a target whose
// scheme no transport speaks, fail construction loudly — not on the
// first round trip.
func TestSessionConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		target string
		ok     bool
	}{
		{"", false},
		{"127.0.0.1:8077", false},
		{"bins://h:1", false},
		{"ftp://x", false},
		{"http://x", true},
		{"https://x", true},
		{"bin://x:1", true},
	} {
		s, err := NewSession(Config{Target: tc.target})
		if (err == nil) != tc.ok {
			t.Errorf("NewSession(Target: %q) error = %v, want ok = %v", tc.target, err, tc.ok)
		}
		if s != nil {
			s.Close()
		}
	}
	s, err := NewSession(Config{Target: "http://x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcquireN(context.Background(), 0); err == nil {
		t.Fatal("AcquireN(0) accepted")
	}
	s.Close()
}

// TestHeartbeatStaleVerdictDoesNotDropReacquiredLease pins the ABA fix:
// a renewal verdict about an OLD fencing token, landing after the caller
// released and re-acquired the same name, must not touch the NEW lease.
// The server here always grants name 5 (with a fresh token each time)
// and blocks the first renew_batch until the test has swapped the lease
// underneath it.
func TestHeartbeatStaleVerdictDoesNotDropReacquiredLease(t *testing.T) {
	var (
		mu       sync.Mutex
		curToken uint64
		held     bool
		entered  = make(chan struct{})
		unblock  = make(chan struct{})
		blockOne atomic.Bool
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/acquire_batch", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		curToken++
		held = true
		tok := curToken
		mu.Unlock()
		json.NewEncoder(w).Encode(wire.Leases{Leases: []wire.Lease{{
			Name: 5, Token: tok,
			ExpiresAtMs: time.Now().Add(300 * time.Millisecond).UnixMilli(),
		}}})
	})
	mux.HandleFunc("POST /v1/renew_batch", func(w http.ResponseWriter, r *http.Request) {
		var req wire.RenewBatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		if blockOne.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-unblock
		}
		out := wire.BatchResults{Results: make([]wire.BatchResult, len(req.Items))}
		mu.Lock()
		for i, it := range req.Items {
			if held && it.Token == curToken {
				wl := wire.Lease{
					Name: it.Name, Token: it.Token,
					ExpiresAtMs: time.Now().Add(300 * time.Millisecond).UnixMilli(),
				}
				out.Results[i].Lease = &wl
			} else {
				out.Results[i] = wire.BatchResult{Error: "token mismatch", Code: wire.CodeWrongToken}
			}
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("POST /v1/release_batch", func(w http.ResponseWriter, r *http.Request) {
		var req wire.ReleaseBatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		held = false
		mu.Unlock()
		json.NewEncoder(w).Encode(wire.BatchResults{Results: make([]wire.BatchResult, len(req.Items))})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	var lost atomic.Int64
	s, err := NewSession(Config{
		Target: srv.URL,
		Owner:  "aba",
		TTL:    300 * time.Millisecond,
		OnLost: func(int, error) { lost.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Acquire(context.Background()); err != nil { // {5, tok1}
		t.Fatal(err)
	}
	blockOne.Store(true)

	// A heartbeat carrying tok1 is now parked inside the server...
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat never reached the server")
	}
	// ...while the caller swaps the lease underneath it.
	if err := s.Release(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Acquire(context.Background()) // {5, tok2}
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Name != 5 || fresh.Token == 1 {
		t.Fatalf("re-acquire = %+v, want name 5 with a fresh token", fresh)
	}
	close(unblock) // stale verdict (wrong_token for tok1) lands now

	// The new lease must survive the stale verdict and keep renewing.
	waitFor(t, 5*time.Second, "fresh-lease renewal", func() bool { return s.Stats().Renewed >= 2 })
	heldNow := s.Leases()
	if len(heldNow) != 1 || heldNow[0].Token != fresh.Token {
		t.Fatalf("held = %+v, want the re-acquired lease (token %d)", heldNow, fresh.Token)
	}
	if lost.Load() != 0 {
		t.Fatalf("OnLost fired %d times for a stale verdict about a released token", lost.Load())
	}
}

// releaseTarget is one server a Session.Release test runs against, with
// the two failures the test needs on demand.
type releaseTarget struct {
	target string
	// revoke makes the server refuse the next release of name; refusal
	// is the sentinel that release then carries.
	revoke  func(name int)
	refusal error
	// kill makes the server unreachable.
	kill func()
}

// releaseTargets serves the same Session.Release tests over both wires:
// the scripted HTTP fake, and a real lease table behind the binary
// protocol.
func releaseTargets(t *testing.T) map[string]releaseTarget {
	t.Helper()
	f := newFakeServer(t, 30*time.Second)

	nm, err := renaming.Open("levelarray?n=16&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	bin := service.NewBinServer(service.New(mgr, nil), service.BinConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); bin.Serve(ln) }()
	kill := func() { bin.Close(); <-done }
	t.Cleanup(func() { kill(); mgr.Close() })

	return map[string]releaseTarget{
		"http": {target: f.url(), revoke: f.hijack, refusal: lease.ErrWrongToken, kill: f.srv.Close},
		"bin": {
			target: "bin://" + ln.Addr().String(),
			// The name is released behind the session's back.
			revoke: func(name int) {
				if l, ok := mgr.Get(name); ok {
					mgr.ReleaseBatch(context.Background(), []lease.ReleaseItem{{Name: name, Token: l.Token}})
				}
			},
			refusal: lease.ErrUnknownName,
			kill:    kill,
		},
	}
}

// TestReleaseTransportFailureReAdopts: a Release whose request never
// reached the server must put the lease back in the heartbeat set —
// otherwise the server-side lease is orphaned until TTL with the session
// blind to it.
func TestReleaseTransportFailureReAdopts(t *testing.T) {
	for name, rt := range releaseTargets(t) {
		t.Run(name, func(t *testing.T) {
			s, err := NewSession(Config{
				Target:      rt.target,
				Owner:       "readopt",
				TTL:         time.Minute,
				CallTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			l, err := s.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// Kill the server: the release's transport fails outright.
			rt.kill()
			err = s.Release(context.Background(), l.Name)
			if err == nil {
				t.Fatal("release against a dead server succeeded")
			}
			var se *ServerError
			if errors.As(err, &se) {
				t.Fatalf("transport failure classified as ServerError: %v", err)
			}
			held := s.Leases()
			if len(held) != 1 || held[0].Token != l.Token {
				t.Fatalf("held = %+v after failed release, want the lease re-adopted", held)
			}
			s.Close() // best effort against the dead server; must still shut down
			if _, err := s.Acquire(context.Background()); !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("Acquire after Close = %v, want ErrSessionClosed", err)
			}
		})
	}
}

// TestReleaseRefusalTyped: a release the server received and refused
// comes back as a *ServerError wrapping the typed sentinel — the
// per-item verdict of the one-item release_batch — and the lease is NOT
// re-adopted: the server has spoken, there is nothing left to renew.
func TestReleaseRefusalTyped(t *testing.T) {
	for name, rt := range releaseTargets(t) {
		t.Run(name, func(t *testing.T) {
			s, err := NewSession(Config{Target: rt.target, Owner: "refused", TTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ls, err := s.AcquireN(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			rt.revoke(ls[0].Name)
			err = s.Release(context.Background(), ls[0].Name)
			if !errors.Is(err, rt.refusal) {
				t.Fatalf("refused release = %v, want errors.Is %v", err, rt.refusal)
			}
			var se *ServerError
			if !errors.As(err, &se) || se.Op != "release_batch" {
				t.Fatalf("refused release = %#v, want a *ServerError for release_batch", err)
			}
			if held := s.Leases(); len(held) != 1 || held[0].Name != ls[1].Name {
				t.Fatalf("held = %+v after refused release, want only %d", held, ls[1].Name)
			}
			// The untouched lease still releases cleanly.
			if err := s.Release(context.Background(), ls[1].Name); err != nil {
				t.Fatalf("clean release = %v", err)
			}
		})
	}
}

// TestSessionStatsScrapeableWithoutCallbacks: a monitoring scrape reads
// heartbeat health — latency distribution and transport failures —
// straight off Stats(), the only place they are reported, with no
// OnLost wired: observing must not require instrumenting construction.
func TestSessionStatsScrapeableWithoutCallbacks(t *testing.T) {
	f := newFakeServer(t, 30*time.Second)
	s, err := NewSession(Config{
		Target: f.url(),
		Owner:  "scrape",
		TTL:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "3 heartbeat rounds", func() bool {
		return s.Stats().HeartbeatLatency.Count >= 3
	})
	st := s.Stats()
	hb := st.HeartbeatLatency
	if hb.Mean <= 0 || hb.P50 <= 0 {
		t.Fatalf("heartbeat latency summary empty with traffic: %+v", hb)
	}
	if hb.P50 > hb.P99 {
		t.Fatalf("non-monotonic latency summary: %+v", hb)
	}
	if st.TransportErrors != 0 {
		t.Fatalf("TransportErrors = %d against a healthy server, want 0", st.TransportErrors)
	}

	// A scripted outage must surface as TransportErrors — the scrape sees
	// the 503s even though nothing registered a callback.
	f.failRenews.Store(2)
	waitFor(t, 10*time.Second, "transport errors recorded", func() bool {
		return s.Stats().TransportErrors >= 2
	})
	if got := s.Stats().TransportErrors; got != 2 {
		t.Fatalf("TransportErrors = %d, want exactly the 2 scripted failures", got)
	}
}
