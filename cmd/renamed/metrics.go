package main

import (
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/lease"
	"repro/lease/persist"
)

// serverMetrics is the server's Prometheus surface: one registry, all
// series registered up front so the exposition is stable from the first
// scrape. The request series and the batch-item verdict counters live in
// svc (service.NewTelemetry), registered on the same registry so
// /metrics stays one exposition.
type serverMetrics struct {
	reg *telemetry.Registry

	// svc owns the transport-labeled series (renamed_requests_total,
	// renamed_request_duration_seconds) and the shared
	// renamed_batch_item_verdicts_total counters; the service core
	// increments them for every transport, including this HTTP surface.
	svc *service.Telemetry
}

// cachedStats memoizes an expensive stats snapshot for ttl, so a scrape
// that reads a dozen series derived from one snapshot pays for it once —
// and a tight scrape loop cannot turn lease.Manager.Metrics (a lock visit
// per stripe, and a scan of any stripe holding a lapsed lease) into a
// denial of service.
type cachedStats[T any] struct {
	fetch func() T
	ttl   time.Duration

	mu sync.Mutex
	at time.Time
	v  T
}

func (c *cachedStats[T]) get() T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); c.at.IsZero() || now.Sub(c.at) > c.ttl {
		c.v = c.fetch()
		c.at = now
	}
	return c.v
}

// newServerMetrics registers the full metric set for one server. Series
// names and labels are promlint-clean by construction (the telemetry
// registry panics on violations at startup, not at scrape time).
func newServerMetrics(s *server) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg, svc: service.NewTelemetry(reg)}

	reg.CounterFunc("renamed_http_errors_total",
		"Requests answered with an error status.", s.errors.Load)
	reg.GaugeFunc("renamed_uptime_seconds",
		"Seconds since the server started.", func() float64 {
			return time.Since(s.start).Seconds()
		})

	// Lease-table series all read one cached snapshot: Metrics() walks
	// every stripe, which is worth paying once per second, not once per
	// series per scrape.
	leaseStats := &cachedStats[lease.Metrics]{fetch: s.mgr.Metrics, ttl: time.Second}
	leaseCounter := func(name, help string, get func(lease.Metrics) int64) {
		reg.CounterFunc(name, help, func() int64 { return get(leaseStats.get()) })
	}
	leaseCounter("renamed_lease_acquired_total", "Leases granted.",
		func(m lease.Metrics) int64 { return m.Acquired })
	leaseCounter("renamed_lease_renewed_total", "Successful renewals.",
		func(m lease.Metrics) int64 { return m.Renewed })
	leaseCounter("renamed_lease_released_total", "Explicit releases.",
		func(m lease.Metrics) int64 { return m.Released })
	leaseCounter("renamed_lease_expired_total", "Leases reclaimed after TTL expiry.",
		func(m lease.Metrics) int64 { return m.Expired })
	leaseCounter("renamed_lease_rejected_total", "Renew/release attempts refused (wrong token, unknown name, expired).",
		func(m lease.Metrics) int64 { return m.Rejected })
	leaseCounter("renamed_lease_reclaim_failures_total", "Expired names the namer refused to take back.",
		func(m lease.Metrics) int64 { return m.ReclaimFailed })
	leaseCounter("renamed_lease_capacity_sweeps_total", "At-capacity sweep passes run before rejecting an acquire.",
		func(m lease.Metrics) int64 { return m.CapacitySweeps })
	leaseCounter("renamed_lease_capacity_sweep_joins_total", "Acquirers that joined another goroutine's in-flight capacity sweep.",
		func(m lease.Metrics) int64 { return m.CapacitySweepJoins })
	reg.GaugeFunc("renamed_lease_live", "Unexpired leases currently held.",
		func() float64 { return float64(leaseStats.get().Live) })
	reg.GaugeFunc("renamed_lease_reserved", "Capacity slots taken: held leases plus in-flight acquire reservations.",
		func() float64 { return float64(leaseStats.get().Reserved) })

	// Elastic-namespace series: instantaneous values, not snapshots — a
	// dashboard watching a resize must see the step the moment it lands,
	// not up to a second late.
	leaseCounter("renamed_resizes_total", "Online capacity retargets applied to the lease cap.",
		func(m lease.Metrics) int64 { return m.Resizes })
	reg.GaugeFunc("renamed_namer_capacity", "Namer capacity: the concurrency bound the probe guarantees hold for.",
		s.namerCapacity)
	reg.GaugeFunc("renamed_lease_max_live", "Live-lease cap currently enforced (0 = uncapped).",
		s.leaseMaxLive)
	reg.GaugeFunc("renamed_namer_draining", "1 while a shrink is waiting on held names above the new bound, else 0.",
		s.namerDraining)

	if s.store != nil {
		persistStats := &cachedStats[persist.Stats]{fetch: s.store.Stats, ttl: time.Second}
		persistCounter := func(name, help string, get func(persist.Stats) int64) {
			reg.CounterFunc(name, help, func() int64 { return get(persistStats.get()) })
		}
		persistCounter("renamed_persist_appends_total", "Journal records appended since boot.",
			func(st persist.Stats) int64 { return st.Appends })
		persistCounter("renamed_persist_fsyncs_total", "Journal fsyncs since boot.",
			func(st persist.Stats) int64 { return st.Syncs })
		persistCounter("renamed_persist_compactions_total", "Snapshot compactions since boot.",
			func(st persist.Stats) int64 { return st.Compactions })
		persistCounter("renamed_persist_journal_bytes_total", "Framed bytes appended to the journal since boot.",
			func(st persist.Stats) int64 { return st.JournalBytes })
		reg.GaugeFunc("renamed_persist_journal_records", "Journal records since the last snapshot — the replay cost of a crash right now.",
			func() float64 { return float64(persistStats.get().JournalRecords) })
		reg.GaugeFunc("renamed_persist_replayed_records", "Journal records replayed by the last recovery.",
			func() float64 { return float64(persistStats.get().ReplayedRecords) })
		reg.GaugeFunc("renamed_persist_truncated_bytes", "Torn-tail bytes dropped by the last recovery.",
			func() float64 { return float64(persistStats.get().TruncatedBytes) })
		reg.GaugeFunc("renamed_persist_recovery_seconds", "Wall-clock time the last recovery spent rebuilding state.",
			func() float64 { return persistStats.get().RecoveryDuration.Seconds() })
		reg.GaugeFunc("renamed_persist_unhealthy", "1 when the journal writer has a sticky error, else 0.",
			func() float64 {
				if persistStats.get().Err != nil {
					return 1
				}
				return 0
			})
	}
	return m
}

// namerCapacity reads the namer's instantaneous capacity: one atomic
// geometry load on the elastic path, cheap enough to skip the cached
// snapshot and report resize steps the moment they publish.
//
//renamed:noalloc
func (s *server) namerCapacity() float64 {
	return float64(s.core.Capacity())
}

// leaseMaxLive reads the live-lease cap: one atomic load.
//
//renamed:noalloc
func (s *server) leaseMaxLive() float64 {
	return float64(s.mgr.MaxLive())
}

// namerDraining reads the shrink drain state. Unlike the two gauges
// above this walks the drained tail (and builds the held-slot probe),
// so it is deliberately NOT annotated noalloc.
func (s *server) namerDraining() float64 {
	_, draining, _ := s.core.NamespaceInfo()
	if draining {
		return 1
	}
	return 0
}
