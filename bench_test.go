// Package renaming_test holds the library's wall-clock benchmarks: the
// concurrent driver under parallel goroutines (F4, and F12's resize
// churn) and the one-shot micro views of the benchmark module's first
// two workloads (Drain, Open, GetNameSequential). The paper's tables are
// step counts, not times; they come from internal/harness through
// cmd/renamebench.
package renaming_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	renaming "repro"
)

// BenchmarkF4ConcurrentGetName measures the real concurrent driver:
// acquire+release cycles from parallel goroutines.
func BenchmarkF4ConcurrentGetName(b *testing.B) {
	nm, err := renaming.NewReBatching(1 << 14)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			u, err := nm.Acquire(context.Background())
			if err != nil {
				b.Error(err)
				return
			}
			if err := nm.Release(u); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkF4AdaptiveConcurrent measures the adaptive namers under real
// goroutine contention.
func BenchmarkF4AdaptiveConcurrent(b *testing.B) {
	builders := []struct {
		name string
		mk   func() (renaming.Namer, error)
	}{
		{"adaptive", func() (renaming.Namer, error) { return renaming.NewAdaptive(1 << 14) }},
		{"fastadaptive", func() (renaming.Namer, error) { return renaming.NewFastAdaptive(1 << 14) }},
		{"levelarray", func() (renaming.Namer, error) { return renaming.NewLevelArray(1 << 14) }},
	}
	for _, bl := range builders {
		b.Run(bl.name, func(b *testing.B) {
			nm, err := bl.mk()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					u, err := nm.Acquire(context.Background())
					if err != nil {
						b.Error(err)
						return
					}
					if err := nm.Release(u); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkF12ResizeChurn measures the acquire+release cost on a
// LevelArray while a background driver retargets its capacity (grow and
// shrink, including shrink-to-a-quarter) every 200µs, against the
// identical namer left at steady capacity. The delta is the price
// acquirers pay for geometry snapshots plus the resizes' own CPU.
func BenchmarkF12ResizeChurn(b *testing.B) {
	const n = 1 << 12
	for _, mode := range []struct {
		name  string
		churn bool
	}{
		{"steady", false},
		{"resizing", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			nm, err := renaming.NewLevelArray(n)
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var resizes atomic.Int64
			if mode.churn {
				go func() {
					targets := []int{3 * n, n / 2, 2 * n, n / 4, n}
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := nm.Resize(targets[i%len(targets)]); err != nil {
							b.Error(err)
							return
						}
						resizes.Add(1)
						time.Sleep(200 * time.Microsecond)
					}
				}()
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					u, err := nm.Acquire(context.Background())
					if err != nil {
						b.Error(err)
						return
					}
					if err := nm.Release(u); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			if mode.churn {
				b.ReportMetric(float64(resizes.Load()), "resizes")
			}
		})
	}
}

// BenchmarkDrain is the micro view of both one-shot workloads: one
// goroutine draws k names from a fresh namer opened with n, then opens
// the next. rebatching drains all n = k = 65536 names (oneshot-rebatching);
// adaptive and fastadaptive draw k = 4096 at contention n = 16384
// (oneshot-adaptive). ns/op is per Acquire; opening is not timed.
func BenchmarkDrain(b *testing.B) {
	for _, tc := range []struct {
		driver string
		n, k   int
	}{
		{"rebatching", 1 << 16, 1 << 16},
		{"adaptive", 1 << 14, 4096},
		{"fastadaptive", 1 << 14, 4096},
	} {
		driver, n, k := tc.driver, tc.n, tc.k
		b.Run(driver, func(b *testing.B) {
			ctx := context.Background()
			var nm renaming.Namer
			for i := 0; i < b.N; i++ {
				if i%k == 0 {
					b.StopTimer()
					var err error
					if nm, err = renaming.Open(fmt.Sprintf("%s?n=%d&seed=%d", driver, n, i/k+1)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := nm.Acquire(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen is the micro view of the Open share of both one-shot
// workloads' setup_s: each op opens a fresh namer at the workload's size
// (rebatching n = 65536, adaptive and fastadaptive at contention 16384).
// B/op is mostly the namespace's TAS bits.
func BenchmarkOpen(b *testing.B) {
	for _, dsn := range []string{"rebatching?n=65536", "adaptive?n=16384", "fastadaptive?n=16384"} {
		b.Run(dsn[:strings.IndexByte(dsn, '?')], func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := renaming.Open(dsn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGetNameSequential is the micro view: a single caller's rename
// cost on an empty namer (the common fast path: first probe wins).
func BenchmarkGetNameSequential(b *testing.B) {
	nm, err := renaming.NewReBatching(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := nm.Acquire(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := nm.Release(u); err != nil {
			b.Fatal(err)
		}
	}
}
