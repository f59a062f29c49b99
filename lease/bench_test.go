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
			l, err := acquire1(m, "bench", 0, nil)
			if err != nil {
				b.Error(err)
				return
			}
			if err := release1(m, l.Name, l.Token); err != nil {
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

// BenchmarkRenewBatch is the acceptance benchmark for the renew path: at
// 2^16 standing leases, ns/op is per RENEWAL in every variant (a call
// renews len(chunk) leases and advances the counter accordingly), so
// "batch1" vs "batchK" reads directly as the per-lease saving from
// amortizing the call's allocations, lock visits, clock read and counter
// updates across a heartbeat batch.
func BenchmarkRenewBatch(b *testing.B) {
	const standing = 1 << 16
	for _, k := range []int{1, 64, 512} {
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

// denseNamer hands out 0..n-1 with no slack, most recently released name
// first, so a lease table over it can be filled to the last slot. Not
// safe for concurrent use.
type denseNamer struct {
	n, next int
	free    []int
}

func (d *denseNamer) Acquire(context.Context) (int, error) {
	if k := len(d.free); k > 0 {
		name := d.free[k-1]
		d.free = d.free[:k-1]
		return name, nil
	}
	if d.next == d.n {
		return 0, renaming.ErrNamespaceExhausted
	}
	d.next++
	return d.next - 1, nil
}

func (d *denseNamer) AcquireN(ctx context.Context, k int) ([]int, error) {
	names := make([]int, k)
	for i := range names {
		name, err := d.Acquire(ctx)
		if err != nil {
			d.free = append(d.free, names[:i]...)
			return nil, err
		}
		names[i] = name
	}
	return names, nil
}

func (d *denseNamer) Namespace() int { return d.n }
func (d *denseNamer) Release(name int) error {
	d.free = append(d.free, name)
	return nil
}

// newFullStripe builds the sweeper's worst case: one stripe whose 2^20
// slots all hold leases a year from expiry, save one slot left for the
// benchmark to churn.
func newFullStripe(b *testing.B) (*Manager, *fakeClock) {
	b.Helper()
	const slots = 1 << 20
	clk := newFakeClock()
	const year = 365 * 24 * time.Hour
	m, err := New(&denseNamer{n: slots}, Config{TTL: year, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	if _, err := m.AcquireBatch(context.Background(), "bench", slots-1, 0, nil); err != nil {
		b.Fatal(err)
	}
	return m, clk
}

// BenchmarkSweepOnce measures an idle sweep over a fully live 2^20-slot
// stripe: the clock has not reached the stripe's earliest deadline, so
// the sweep is one comparison per stripe, independent of the table.
func BenchmarkSweepOnce(b *testing.B) {
	m, _ := newFullStripe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := m.SweepOnce(); n != 0 {
			b.Fatalf("idle sweep reclaimed %d", n)
		}
	}
}

// BenchmarkSweepScan measures the worst stall the sweeper can cause: one
// due lease in an otherwise fully live 2^20-slot stripe, so the sweep is
// a full pass over the slots under the stripe lock to reclaim a single
// name. Each iteration also pays the short-TTL Acquire that sets the
// lease up — nanoseconds against the pass's milliseconds.
func BenchmarkSweepScan(b *testing.B) {
	m, clk := newFullStripe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acquire1(m, "due", time.Second, nil); err != nil {
			b.Fatal(err)
		}
		clk.Advance(2 * time.Second)
		if n := m.SweepOnce(); n != 1 {
			b.Fatalf("due sweep reclaimed %d, want 1", n)
		}
	}
}

// BenchmarkServiceScale is acquire+release throughput at service scale —
// a standing population of long-lived holders with the reclamation
// sweeper running at the cadence a short-TTL lease class dictates (the
// package default is TTL/4; heartbeat leases of tens of milliseconds put
// that at single-digit milliseconds). A sweep tick that finds nothing due
// is one comparison per stripe (BenchmarkSweepOnce) and the stripes keep
// ops out of a due scan's way (BenchmarkSweepScan is that scan's cost);
// the single-mutex manager this replaced (EXPERIMENTS.md F8) rescanned
// every live lease under its one mutex on every tick.
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
			if _, err := acquire1(m, "pin", time.Hour, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l, err := acquire1(m, "bench", time.Minute, nil)
				if err != nil {
					b.Error(err)
					return
				}
				if err := release1(m, l.Name, l.Token); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
