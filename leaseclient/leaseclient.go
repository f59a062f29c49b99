// Package leaseclient is the client half of cmd/renamed's lease
// protocol: a Session acquires names from a renamed server and keeps
// them alive for you — the etcd-style session idiom.
//
// A Session owns a background heartbeat goroutine that renews every held
// lease at a third of the remaining TTL (with jitter so fleets of
// sessions don't thunder in phase), coalescing all due renewals into
// single renew_batch calls. Transient failures — connection errors,
// 5xx — are retried with exponential backoff inside the remaining TTL
// budget. A renewal the server refuses outright
// (unknown name, fencing token mismatch, expired) means the lease is
// LOST: it is dropped from the session and reported through the OnLost
// callback, typed so errors.Is against lease.ErrWrongToken /
// lease.ErrExpired / lease.ErrUnknownName tells you why. Close releases
// everything in one release_batch round trip.
//
//	s, err := leaseclient.NewSession(leaseclient.Config{
//		Target: "http://localhost:8077",
//		Owner:  "worker-7",
//		TTL:    5 * time.Second,
//		OnLost: func(name int, err error) { log.Printf("lost %d: %v", name, err) },
//	})
//	l, err := s.Acquire(ctx)    // one name, heartbeated from now on
//	...
//	defer s.Close()             // releases every held lease
package leaseclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/lease"
)

// ErrSessionClosed is returned by operations on a closed Session.
var ErrSessionClosed = errors.New("leaseclient: session closed")

// maxBackoff caps the transient-failure retry delay: a session must keep
// probing at least every 2s through a server restart, or leases expire
// while the client politely waits.
const maxBackoff = 2 * time.Second

const (
	// heartbeatFraction is the fraction of the soonest remaining TTL to
	// wait between renewals: a lease gets two more chances if a heartbeat
	// round fails transiently.
	heartbeatFraction = 1.0 / 3
	// heartbeatJitter spreads each heartbeat interval by ±10% so many
	// sessions started together don't renew in phase forever.
	heartbeatJitter = 0.1
	// maxBatch caps the items per renew_batch (and release_batch)
	// request: at the wire's ~25 bytes per item this stays well inside
	// the server's 1 MiB body limit.
	maxBatch = 4096
)

// Lease is one name the session holds. Copies are handed out; the
// session keeps renewing the lease regardless of what the caller does
// with the copy.
type Lease struct {
	// Name is the acquired integer name.
	Name int
	// Token is the fencing token minted at acquisition. The session
	// presents it on every renewal; callers passing it to other systems
	// get fencing for free.
	Token uint64
	// ExpiresAt is the deadline as of the last successful acquire/renew,
	// computed from the server's expires_at_ms.
	ExpiresAt time.Time
}

// Config tunes a Session. Target is required (unless Transport is
// injected); everything else defaults.
type Config struct {
	// Target selects the server and the wire: "http://host:8077" (or
	// https://) for the JSON surface, "bin://host:9077" for the binary
	// protocol on a persistent connection; NewSession refuses anything
	// else. The Session itself is transport-neutral.
	Target string
	// Transport overrides Target with a caller-built transport (tests,
	// custom wiring). The caller keeps ownership: Close does not close an
	// injected transport.
	Transport Transport
	// Owner identifies this session to the server (shows up in
	// /v1/leases listings).
	Owner string
	// TTL is the lease duration requested on every acquire and renew.
	// 0 uses the server's default TTL; the heartbeat cadence then derives
	// from the expiry the server actually granted, so either way renewals
	// land well before the deadline.
	TTL time.Duration
	// CallTimeout bounds every round trip whose context carries no
	// deadline (the heartbeat loop's context never does). Without it a
	// wedged server — one that accepts a connection and never replies —
	// would hang a heartbeat forever while the leases it was renewing
	// burn down. Default DefaultCallTimeout (10s); negative disables the
	// bound entirely (tests and fault injection only — never production).
	CallTimeout time.Duration
	// Now is the session's clock; defaults to time.Now. The chaos
	// harness injects skewed clocks here, mirroring lease.Config.Now.
	Now func() time.Time
	// Rand is the heartbeat jitter source, returning values in [0,1);
	// defaults to the global math/rand/v2. Injecting a seeded source
	// (together with Now) makes the session's renewal schedule
	// deterministic end-to-end for chaos runs.
	Rand func() float64
	// OnLost is invoked (from the heartbeat goroutine, without internal
	// locks held) for every lease the server refuses to renew: the
	// session no longer holds the name, and err matches
	// lease.ErrUnknownName, lease.ErrWrongToken or lease.ErrExpired.
	OnLost func(name int, err error)
}

func (c *Config) applyDefaults() error {
	if c.Target == "" && c.Transport == nil {
		return errors.New("leaseclient: Config.Target required")
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = DefaultCallTimeout
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return nil
}

// maxDuration clamps a negative (unbounded) CallTimeout to the
// http.Client spelling of "no timeout".
func maxDuration(d, floor time.Duration) time.Duration {
	if d < floor {
		return floor
	}
	return d
}

// Stats is a snapshot of a session's lifetime counters. Everything a
// monitoring scrape wants is here: the session maintains its own
// per-batch latency histogram and transport-failure counter internally.
type Stats struct {
	Renewed    int64 // successful single-lease renewals (across batches)
	Heartbeats int64 // renew_batch round trips attempted
	Retries    int64 // heartbeat rounds that failed transport and backed off
	Lost       int64 // leases dropped because the server refused renewal
	// TransportErrors counts individual renew_batch round trips that
	// failed at the transport layer (connect refused, timeout, 5xx).
	// Retries counts backoff decisions per heartbeat ROUND; this counts
	// failed REQUESTS, so with multiple chunks per round it can lead.
	TransportErrors int64
	// HeartbeatLatency summarizes the wall-clock latency of every
	// renew_batch round trip (success or failure) since the session
	// started: count, mean and p50/p90/p95/p99.
	HeartbeatLatency telemetry.Summary
}

// Session holds leases against one renamed server and renews them in the
// background. All methods are safe for concurrent use.
type Session struct {
	cfg Config
	// tr moves the bytes; every protocol decision above it (heartbeat
	// cadence, backoff, loss classification, re-adoption) is written once
	// here and works over HTTP and the binary wire identically.
	tr Transport
	// ownTransport marks a transport this session built from cfg.Target
	// (and must close); injected transports belong to the caller.
	ownTransport bool

	mu     sync.Mutex
	leases map[int]Lease
	closed bool

	// kick wakes the heartbeat loop early when the lease set changes
	// (first acquire after idle, or a Close).
	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	renewed       atomic.Int64
	heartbeats    atomic.Int64
	retries       atomic.Int64
	lost          atomic.Int64
	transportErrs atomic.Int64
	hbLat         *telemetry.Histogram

	// backoff is the current transient-failure retry delay; reset to 0
	// by any successful heartbeat round.
	backoff time.Duration
}

// NewSession validates cfg and starts the heartbeat loop. The session
// holds no leases until Acquire/AcquireN.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Session{
		cfg:    cfg,
		leases: make(map[int]Lease),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		hbLat:  telemetry.NewHistogram(),
	}
	if s.tr = cfg.Transport; s.tr == nil {
		tr, err := NewTransportTimeout(cfg.Target, cfg.CallTimeout)
		if err != nil {
			return nil, err
		}
		s.tr, s.ownTransport = tr, true
	}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Acquire leases one fresh name and adds it to the heartbeat set.
func (s *Session) Acquire(ctx context.Context) (Lease, error) {
	ls, err := s.AcquireN(ctx, 1)
	if err != nil {
		return Lease{}, err
	}
	return ls[0], nil
}

// AcquireN leases k fresh names in one acquire_batch round trip
// (all-or-nothing, like the server) and adds them to the heartbeat set.
func (s *Session) AcquireN(ctx context.Context, k int) ([]Lease, error) {
	if k < 1 {
		return nil, fmt.Errorf("leaseclient: AcquireN(%d): k must be >= 1", k)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.mu.Unlock()

	granted, err := s.tr.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: s.cfg.Owner, Count: k, TTLms: s.cfg.TTL.Milliseconds()})
	if err != nil {
		return nil, err
	}
	if len(granted.Leases) != k {
		return nil, fmt.Errorf("leaseclient: acquire_batch returned %d leases, want %d", len(granted.Leases), k)
	}

	out := make([]Lease, len(granted.Leases))
	s.mu.Lock()
	if s.closed {
		// Raced with Close: the session won't heartbeat these; hand them
		// back rather than leaking them until the TTL.
		s.mu.Unlock()
		items := make([]wire.Item, len(granted.Leases))
		for i, l := range granted.Leases {
			items[i] = wire.Item{Name: l.Name, Token: l.Token}
		}
		//lint:ctx the acquire's own ctx may already be cancelled; this cleanup must still run
		s.releaseItems(context.Background(), items)
		return nil, ErrSessionClosed
	}
	for i, wl := range granted.Leases {
		l := Lease{Name: wl.Name, Token: wl.Token, ExpiresAt: time.UnixMilli(wl.ExpiresAtMs)}
		s.leases[l.Name] = l
		out[i] = l
	}
	s.mu.Unlock()
	s.wake()
	return out, nil
}

// Release hands one held name back immediately and stops renewing it.
// The lease leaves the heartbeat set before the round trip (so an
// overlapping heartbeat can't misread the release as a loss); if the
// request never reaches the server, it is re-adopted and keeps being
// renewed, so a transport blip cannot orphan a live server-side lease
// until its TTL.
func (s *Session) Release(ctx context.Context, name int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	l, ok := s.leases[name]
	if ok {
		delete(s.leases, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("leaseclient: name %d not held by this session", name)
	}
	results, err := s.tr.ReleaseBatch(ctx, &wire.ReleaseBatchRequest{Items: []wire.Item{{Name: l.Name, Token: l.Token}}})
	if err == nil && len(results.Results) != 1 {
		err = fmt.Errorf("leaseclient: release_batch returned %d results, want 1", len(results.Results))
	}
	if err != nil {
		var se *ServerError
		if !errors.As(err, &se) {
			// Transport-level failure: the server may never have seen the
			// release. Re-adopt the lease (unless the name was re-acquired
			// or the session closed meanwhile) and let the caller retry. If
			// the request did land and only the response was lost, the next
			// heartbeat learns unknown_name and reports it through OnLost.
			s.mu.Lock()
			if _, taken := s.leases[name]; !taken && !s.closed {
				s.leases[name] = l
			}
			s.mu.Unlock()
		}
		return err
	}
	// A refused item means the server saw the release: typed like a
	// whole-request refusal, and never re-adopted.
	r := results.Results[0]
	if verr := wire.ParseCode(r.Code).Err(r.Error); verr != nil {
		return &ServerError{Op: "release_batch", Msg: verr.Error(), Err: verr}
	}
	return nil
}

// Leases snapshots the currently held leases.
func (s *Session) Leases() []Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Lease, 0, len(s.leases))
	for _, l := range s.leases {
		out = append(out, l)
	}
	return out
}

// Stats snapshots the session counters.
func (s *Session) Stats() Stats {
	return Stats{
		Renewed:          s.renewed.Load(),
		Heartbeats:       s.heartbeats.Load(),
		Retries:          s.retries.Load(),
		Lost:             s.lost.Load(),
		TransportErrors:  s.transportErrs.Load(),
		HeartbeatLatency: s.hbLat.Summary(),
	}
}

// Close stops the heartbeat loop and releases every held lease in one
// batched round trip. Idempotent; returns the first release error (a
// lease the server says is already gone is not an error — losing the
// race to the sweeper at shutdown is normal).
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	items := make([]wire.Item, 0, len(s.leases))
	for _, l := range s.leases {
		items = append(items, wire.Item{Name: l.Name, Token: l.Token})
	}
	s.leases = map[int]Lease{}
	s.mu.Unlock()

	close(s.done)
	s.wg.Wait()
	//lint:ctx Close releases on the session's own lifetime; no caller context survives it
	err := s.releaseItems(context.Background(), items)
	if s.ownTransport {
		if cerr := s.tr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// releaseItems hands names back via release_batch in maxBatch
// chunks, tolerating already-gone leases.
func (s *Session) releaseItems(ctx context.Context, items []wire.Item) error {
	var first error
	for len(items) > 0 {
		chunk := items
		if len(chunk) > maxBatch {
			chunk = chunk[:maxBatch]
		}
		items = items[len(chunk):]
		results, err := s.tr.ReleaseBatch(ctx, &wire.ReleaseBatchRequest{Items: chunk})
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		for _, r := range results.Results {
			rerr := wire.ParseCode(r.Code).Err(r.Error)
			if rerr != nil && first == nil && !isGone(rerr) {
				first = rerr
			}
		}
	}
	return first
}

// loop is the heartbeat goroutine: sleep a fraction of the remaining
// TTL (with jitter, or the current backoff after a transient failure),
// then renew everything in batched round trips.
func (s *Session) loop() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		wait, idle := s.nextWait()
		if idle {
			// Nothing held: sleep until the lease set changes.
			select {
			case <-s.done:
				return
			case <-s.kick:
				continue
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-s.done:
			return
		case <-s.kick:
			continue
		case <-timer.C:
		}
		s.heartbeat()
	}
}

// nextWait computes how long to sleep before the next heartbeat round:
// heartbeatFraction of the soonest remaining TTL, jittered, or the
// current retry backoff when the last round failed transport.
func (s *Session) nextWait() (wait time.Duration, idle bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.leases) == 0 {
		return 0, true
	}
	soonest := time.Duration(1<<63 - 1)
	now := s.cfg.Now()
	for _, l := range s.leases {
		if r := l.ExpiresAt.Sub(now); r < soonest {
			soonest = r
		}
	}
	if soonest < 0 {
		soonest = 0
	}
	wait = time.Duration(float64(soonest) * heartbeatFraction)
	if s.backoff > 0 && s.backoff < wait {
		wait = s.backoff
	}
	// Jitter de-phases fleets of sessions; floor keeps a pathological
	// clock (or an already-expired lease) from spinning the loop hot.
	wait = time.Duration(float64(wait) * (1 + heartbeatJitter*(2*s.cfg.Rand()-1)))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait, false
}

// heartbeat renews every held lease in maxBatch chunks.
func (s *Session) heartbeat() {
	s.mu.Lock()
	items := make([]wire.Item, 0, len(s.leases))
	for _, l := range s.leases {
		items = append(items, wire.Item{Name: l.Name, Token: l.Token})
	}
	s.mu.Unlock()

	type lostLease struct {
		name int
		err  error
	}
	var lost []lostLease
	failed := false
	for len(items) > 0 {
		chunk := items
		if len(chunk) > maxBatch {
			chunk = chunk[:maxBatch]
		}
		items = items[len(chunk):]

		s.heartbeats.Add(1)
		// The injected clock, not time.Now: a skewed session must see its
		// own heartbeat latency through the same clock that runs its
		// renew timers, or the chaos clock-skew scenarios would mix
		// timebases inside one session.
		start := s.cfg.Now()
		//lint:ctx the heartbeat loop is the session's own lifetime, bounded by CallTimeout inside the transport
		results, err := s.tr.RenewBatch(context.Background(),
			&wire.RenewBatchRequest{TTLms: s.cfg.TTL.Milliseconds(), Items: chunk})
		elapsed := s.cfg.Now().Sub(start)
		s.hbLat.Observe(elapsed)
		if err != nil {
			// Transport-level failure: every lease in the chunk is still
			// plausibly held; retry sooner with backoff.
			s.transportErrs.Add(1)
			failed = true
			continue
		}
		if len(results.Results) != len(chunk) {
			failed = true
			continue
		}
		s.mu.Lock()
		for i, r := range results.Results {
			name := chunk[i].Name
			// Guard every map write with a token comparison against the
			// snapshot this round actually sent: the caller may have
			// released and re-acquired the same name while the request
			// was in flight, and a verdict about the OLD token must not
			// touch (least of all drop) the NEW lease.
			l, ok := s.leases[name]
			if !ok || l.Token != chunk[i].Token {
				continue
			}
			if r.Lease != nil {
				l.ExpiresAt = time.UnixMilli(r.Lease.ExpiresAtMs)
				s.leases[name] = l
				s.renewed.Add(1)
				continue
			}
			rerr := wire.ParseCode(r.Code).Err(r.Error)
			if rerr == nil {
				rerr = errors.New("leaseclient: renew_batch result carried neither lease nor error")
			}
			// The server refused this lease outright: it is lost. Drop it
			// now so the next round doesn't re-present a dead token.
			delete(s.leases, name)
			s.lost.Add(1)
			lost = append(lost, lostLease{name: name, err: rerr})
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	if failed {
		s.retries.Add(1)
		if s.backoff == 0 {
			s.backoff = 50 * time.Millisecond
		} else {
			// Double, then clamp: the guard used to be checked BEFORE the
			// doubling, so 50ms·2^k marched 1.6s → 3.2s and the effective
			// ceiling was ~4s, not the intended 2s. During a server
			// restart every extra second of backoff is a heartbeat the
			// session doesn't attempt while its TTL burns down.
			s.backoff *= 2
			if s.backoff > maxBackoff {
				s.backoff = maxBackoff
			}
		}
	} else {
		s.backoff = 0
	}
	s.mu.Unlock()

	// Callbacks run without locks held so they may call back into the
	// session.
	if s.cfg.OnLost != nil {
		for _, ll := range lost {
			s.cfg.OnLost(ll.name, ll.err)
		}
	}
}

// wake nudges the heartbeat loop to re-plan its next wait.
func (s *Session) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// isGone reports whether err means the lease no longer exists server-
// side — the benign outcome for a shutdown-time release, where losing
// the race to the sweeper (or to an earlier lost-lease drop) is normal.
func isGone(err error) bool {
	return errors.Is(err, lease.ErrUnknownName) ||
		errors.Is(err, lease.ErrExpired) ||
		errors.Is(err, lease.ErrWrongToken)
}
