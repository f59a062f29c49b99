package lease

import (
	"context"
	"fmt"
	"testing"
	"time"

	renaming "repro"
)

// newBenchManager builds a manager over a LevelArray with the given shard
// count (0 = the GOMAXPROCS default, 1 = the pre-sharding single-mutex
// layout) and capacity headroom so the namer never rejects.
func newBenchManager(b testing.TB, shards int) *Manager {
	b.Helper()
	nm, err := renaming.NewLevelArray(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: -1, MaxLive: 1 << 12, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	return m
}

func benchAcquireRelease(b *testing.B, shards int) {
	m := newBenchManager(b, shards)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l, err := m.Acquire("bench", 0, nil)
			if err != nil {
				b.Error(err)
				return
			}
			if err := m.Release(l.Name, l.Token); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkAcquireRelease is the acceptance benchmark for the sharded
// manager: run with GOMAXPROCS=8 and compare singleMutex (Shards: 1, the
// pre-sharding layout) against sharded (the default stripe count).
// EXPERIMENTS.md F8 records the measured ratio.
func BenchmarkAcquireRelease(b *testing.B) {
	b.Run("singleMutex", func(b *testing.B) { benchAcquireRelease(b, 1) })
	b.Run("sharded", func(b *testing.B) { benchAcquireRelease(b, 0) })
}

func benchRenew(b *testing.B, shards int) {
	m := newBenchManager(b, shards)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		l, err := m.Acquire("bench", 0, nil)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := m.Renew(l.Name, l.Token, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkRenew(b *testing.B) {
	b.Run("singleMutex", func(b *testing.B) { benchRenew(b, 1) })
	b.Run("sharded", func(b *testing.B) { benchRenew(b, 0) })
}

// newStandingLeases builds a manager with `standing` long-lived leases
// already held — the renewal hot path's real shape: a large stable holder
// population heartbeating, not a churn of fresh names.
func newStandingLeases(b testing.TB, standing int) (*Manager, []RenewItem) {
	b.Helper()
	nm, err := renaming.NewLevelArray(standing)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Hour, SweepInterval: -1, MaxLive: standing})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	leases, err := m.AcquireBatch(context.Background(), "bench", standing, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]RenewItem, len(leases))
	for i, l := range leases {
		items[i] = RenewItem{Name: l.Name, Token: l.Token}
	}
	return m, items
}

// BenchmarkRenewBatch is the acceptance benchmark for the batched renew
// path: at 2^16 standing leases, ns/op is per RENEWAL in every variant
// (the batch variants renew len(chunk) leases per call and advance the
// counter accordingly), so "single" vs "batchK" reads directly as the
// per-lease saving from amortizing lock visits, the clock read and the
// counter updates across a heartbeat batch.
func BenchmarkRenewBatch(b *testing.B) {
	const standing = 1 << 16
	b.Run("single", func(b *testing.B) {
		m, items := newStandingLeases(b, standing)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := items[i%standing]
			if _, err := m.Renew(it.Name, it.Token, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{64, 512} {
		b.Run(fmt.Sprintf("batch%d", k), func(b *testing.B) {
			m, items := newStandingLeases(b, standing)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				start := done % standing
				end := start + k
				if end > standing {
					end = standing
				}
				chunk := items[start:end]
				results, err := m.RenewBatch(ctx, chunk, 0)
				if err != nil {
					b.Fatal(err)
				}
				for i := range results {
					if results[i].Err != nil {
						b.Fatal(results[i].Err)
					}
				}
				done += len(chunk)
			}
		})
	}
}

// BenchmarkSweepOnce measures an idle sweep over a fully live table: the
// heap design makes it O(shards) peeks, independent of the live count.
func BenchmarkSweepOnce(b *testing.B) {
	m := newBenchManager(b, 0)
	for i := 0; i < 1<<10; i++ {
		if _, err := m.Acquire("bench", time.Hour, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SweepOnce()
	}
}

// BenchmarkServiceScale is acquire+release throughput at service scale —
// a standing population of long-lived holders with the reclamation
// sweeper running at the cadence a short-TTL lease class dictates (the
// package default is TTL/4; heartbeat leases of tens of milliseconds put
// that at single-digit milliseconds). The sharded manager's heap sweeps
// are O(expired) and its stripes keep ops out of the sweeper's way; the
// single-mutex manager it replaced (EXPERIMENTS.md F8) rescanned every
// live lease under its one mutex on every tick.
func BenchmarkServiceScale(b *testing.B) {
	const (
		capacity   = 1 << 21
		pinned     = 1 << 20
		sweepEvery = 5 * time.Millisecond
	)
	b.Run("sharded", func(b *testing.B) {
		nm, err := renaming.NewLevelArray(capacity)
		if err != nil {
			b.Fatal(err)
		}
		m, err := New(nm, Config{TTL: time.Hour, SweepInterval: sweepEvery, MaxLive: capacity})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		for i := 0; i < pinned; i++ {
			if _, err := m.Acquire("pin", time.Hour, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l, err := m.Acquire("bench", time.Minute, nil)
				if err != nil {
					b.Error(err)
					return
				}
				if err := m.Release(l.Name, l.Token); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
