package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/leaseclient"
)

// The load generator drives a running server through the leaseclient
// transport layer, so one binary exercises both wires: -target
// http://host:port speaks JSON, -target bin://host:port speaks the
// binary protocol over a persistent connection per worker. Everything
// above the transport — the sessions, the churners, the report — is
// wire-agnostic.

// latSummary is one operation's client-observed latency in the report.
type latSummary struct {
	P50, P99 time.Duration
}

// pingTarget fails fast if the server is unreachable, rather than
// reporting a run with nothing but failures. It also validates the
// target scheme before any workers start.
func pingTarget(target string) error {
	tr, err := leaseclient.NewTransport(target)
	if err != nil {
		return err
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tr.Ping(ctx); err != nil {
		return fmt.Errorf("target unreachable: %w", err)
	}
	return nil
}

// sessionReport aggregates a -load run: a standing population of
// heartbeating holders (the renewal-dominated traffic shape a name
// service actually serves) with optional churn clients alongside.
type sessionReport struct {
	Holders  int // heartbeating leases, spread across Sessions
	Sessions int
	Churners int
	Duration time.Duration
	Elapsed  time.Duration

	Heartbeats int64  // renew_batch round trips
	Renews     int64  // individual lease renewals across them
	Retries    int64  // heartbeat rounds that hit transport failures
	Lost       int64  // leases lost mid-run (must be 0 with on-time renewals)
	MaxToken   uint64 // highest fencing token observed across the holders

	// TransportErrs and SessionP99 come straight from the sessions' own
	// Stats — the callback-free counters a monitoring scrape would read —
	// rather than from loadgen-side instrumentation. SessionP99 is the
	// WORST per-session renew_batch p99, so one laggard session can't
	// hide inside a fleet-wide aggregate.
	TransportErrs int64
	SessionP99    time.Duration

	// MaxToken is what makes the loadgen a crash-restart harness: run it
	// with -sessions against a -data-dir server, kill -9 the server mid-
	// run, restart it from the same directory, and the report must show
	// lost 0 (every restored lease kept renewing on its old token, with
	// retries absorbing the downtime) while any lease acquired AFTER the
	// restart carries a token strictly above this watermark — the
	// monotonic-fencing guarantee, checkable from outside with one curl.

	ChurnAcquires int64
	ChurnReleases int64
	ChurnFailures int64

	RenewLat   latSummary // per renew_batch round trip, client-observed
	RenewsPerS float64
}

func (r sessionReport) print(out io.Writer) {
	fmt.Fprintf(out, "session load: %d holders over %d sessions, %d churners, configured %v, ran %v\n",
		r.Holders, r.Sessions, r.Churners, r.Duration, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  heartbeats %d (renew_batch round trips)\n  renews     %d\n  retries    %d\n  lost       %d\n  max token  %d\n",
		r.Heartbeats, r.Renews, r.Retries, r.Lost, r.MaxToken)
	fmt.Fprintf(out, "  churn      %d acquires, %d releases, %d failures\n",
		r.ChurnAcquires, r.ChurnReleases, r.ChurnFailures)
	fmt.Fprintf(out, "  renew_batch latency p50/p99 %v/%v\n", r.RenewLat.P50, r.RenewLat.P99)
	fmt.Fprintf(out, "  session stats %d transport errors, worst-session p99 %v\n",
		r.TransportErrs, r.SessionP99)
	fmt.Fprintf(out, "  renewal throughput %.0f renews/sec\n", r.RenewsPerS)
}

// runSessionLoad keeps `holders` leases alive for `duration` through
// `clients` leaseclient sessions (each heartbeating its share in
// coalesced renew_batch calls at a third of leaseTTL), while `churn`
// workers cycle acquire→release alongside. Lost must come back 0: a
// holder population whose renewals are on time never loses a lease.
// The target scheme picks the wire for sessions and churners alike.
func runSessionLoad(target string, holders, clients, churn int, leaseTTL, duration time.Duration) (sessionReport, error) {
	if clients < 1 {
		clients = 1
	}
	if clients > holders {
		clients = holders
	}
	if err := pingTarget(target); err != nil {
		return sessionReport{}, err
	}

	var lost atomic.Int64
	renewLat := telemetry.NewHistogram()
	sessions := make([]*leaseclient.Session, 0, clients)
	closeAll := func() {
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func(s *leaseclient.Session) { defer wg.Done(); s.Close() }(s)
		}
		wg.Wait()
	}
	for c := 0; c < clients; c++ {
		s, err := leaseclient.NewSession(leaseclient.Config{
			Target: target,
			Owner:  fmt.Sprintf("sessgen-%d", c),
			TTL:    leaseTTL,
			OnLost: func(int, error) { lost.Add(1) },
			OnHeartbeat: func(_ int, d time.Duration, err error) {
				if err == nil {
					renewLat.Observe(d)
				}
			},
		})
		if err != nil {
			closeAll()
			return sessionReport{}, err
		}
		sessions = append(sessions, s)
		// Spread the holders across sessions, remainder to the first few.
		share := holders / clients
		if c < holders%clients {
			share++
		}
		if share == 0 {
			continue
		}
		if _, err := s.AcquireN(context.Background(), share); err != nil {
			closeAll()
			return sessionReport{}, fmt.Errorf("session %d acquiring %d holders: %w", c, share, err)
		}
	}

	// The measured window opens only after every session is populated:
	// setup (N acquire_batch round trips) must not dilute the renewal
	// throughput, and the window closes BEFORE teardown for the same
	// reason. Counters are baselined here so heartbeats that fired while
	// later sessions were still acquiring don't count against the window
	// either.
	var baseHeartbeats, baseRenews, baseRetries int64
	for _, s := range sessions {
		st := s.Stats()
		baseHeartbeats += st.Heartbeats
		baseRenews += st.Renewed
		baseRetries += st.Retries
	}
	start := time.Now()

	// Churn traffic rides alongside: acquire → release, one lease at a
	// time, sharing the server with the heartbeat storm.
	var churnAcquires, churnReleases, churnFailures atomic.Int64
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < churn; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr, err := leaseclient.NewTransport(target)
			if err != nil {
				churnFailures.Add(1)
				return
			}
			defer tr.Close()
			ctx := context.Background()
			owner := fmt.Sprintf("churn-%d", id)
			for time.Now().Before(deadline) {
				granted, err := tr.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: owner, Count: 1})
				if err != nil || len(granted.Leases) != 1 {
					churnFailures.Add(1)
					continue
				}
				churnAcquires.Add(1)
				l := granted.Leases[0]
				res, err := tr.ReleaseBatch(ctx, &wire.ReleaseBatchRequest{Items: []wire.Item{{Name: l.Name, Token: l.Token}}})
				if err == nil && len(res.Results) == 1 && res.Results[0].Code == "" {
					churnReleases.Add(1)
				} else {
					churnFailures.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(time.Until(deadline))
	wg.Wait()

	// Snapshot the counters and close the window at the same instant,
	// before teardown: closeAll's release_batch round trips are not
	// renewal throughput. Lost is tallied through OnLost; the
	// per-session Stats cover the rest.
	var heartbeats, renews, retries, transportErrs int64
	var maxToken uint64
	var sessP99 time.Duration
	for _, s := range sessions {
		st := s.Stats()
		heartbeats += st.Heartbeats
		renews += st.Renewed
		retries += st.Retries
		transportErrs += st.TransportErrors
		if st.HeartbeatLatency.P99 > sessP99 {
			sessP99 = st.HeartbeatLatency.P99
		}
		for _, l := range s.Leases() {
			if l.Token > maxToken {
				maxToken = l.Token
			}
		}
	}
	heartbeats -= baseHeartbeats
	renews -= baseRenews
	retries -= baseRetries
	elapsed := time.Since(start)
	closeAll()
	return sessionReport{
		Holders:       holders,
		Sessions:      len(sessions),
		Churners:      churn,
		Duration:      duration,
		Elapsed:       elapsed,
		Heartbeats:    heartbeats,
		Renews:        renews,
		Retries:       retries,
		Lost:          lost.Load(),
		MaxToken:      maxToken,
		TransportErrs: transportErrs,
		SessionP99:    sessP99,
		ChurnAcquires: churnAcquires.Load(),
		ChurnReleases: churnReleases.Load(),
		ChurnFailures: churnFailures.Load(),
		RenewLat:      latSummary{P50: renewLat.Quantile(0.50), P99: renewLat.Quantile(0.99)},
		RenewsPerS:    float64(renews) / elapsed.Seconds(),
	}, nil
}
