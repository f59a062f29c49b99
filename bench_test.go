// Package renaming_test holds the benchmark harness: one testing.B
// benchmark per experiment in DESIGN.md's index (T1-T7, F1-F6), each
// regenerating the corresponding measurement at benchmark scale. Custom
// metrics carry the paper's quantities (max steps, steps/proc, layers, ...)
// alongside ns/op. Full-scale tables come from cmd/renamebench.
package renaming_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/sim"
)

// simulate runs one adversarial execution and fails the benchmark on any
// error or safety violation.
func simulate(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.UniqueNames(); err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkT1StepComplexity measures ReBatching's maximum individual step
// complexity per execution (Theorem 4.1).
func BenchmarkT1StepComplexity(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
			var maxSteps int64
			for i := 0; i < b.N; i++ {
				res := simulate(b, sim.Config{N: n, Algorithm: alg, Seed: uint64(i)})
				maxSteps += int64(res.MaxSteps())
			}
			b.ReportMetric(float64(maxSteps)/float64(b.N), "maxsteps/run")
		})
	}
}

// BenchmarkT2TotalWork measures ReBatching's total steps per process
// (Theorem 4.1's O(n) total complexity).
func BenchmarkT2TotalWork(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
			var total int64
			for i := 0; i < b.N; i++ {
				res := simulate(b, sim.Config{N: n, Algorithm: alg, Seed: uint64(i)})
				total += res.TotalSteps
			}
			b.ReportMetric(float64(total)/float64(b.N)/float64(n), "steps/proc")
		})
	}
}

// BenchmarkT3BatchSurvivors measures the Lemma 4.2 survivor count entering
// batch 1 (processes that failed every batch-0 probe).
func BenchmarkT3BatchSurvivors(b *testing.B) {
	const n = 1024
	alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
	lo, hi := alg.BatchBounds(1)
	var survivors int64
	for i := 0; i < b.N; i++ {
		seen := make(map[int]bool)
		simulate(b, sim.Config{
			N: n, Algorithm: alg, Seed: uint64(i),
			Trace: func(ev sim.Event) {
				if ev.Loc >= lo && ev.Loc < hi {
					seen[ev.PID] = true
				}
			},
		})
		survivors += int64(len(seen))
	}
	b.ReportMetric(float64(survivors)/float64(b.N), "n1/run")
}

// BenchmarkT4BackupFrequency measures how often any process overruns its
// batch-probe budget into the backup phase.
func BenchmarkT4BackupFrequency(b *testing.B) {
	const n = 256
	alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
	budget := 0
	for i := 0; i <= alg.MaxBatch(); i++ {
		budget += alg.BatchProbes(i)
	}
	backups := 0
	for i := 0; i < b.N; i++ {
		res := simulate(b, sim.Config{N: n, Algorithm: alg, Seed: uint64(i)})
		for _, s := range res.Steps {
			if s > budget {
				backups++
				break
			}
		}
	}
	b.ReportMetric(float64(backups)/float64(b.N), "backupruns/run")
}

// BenchmarkT5AdaptiveSteps measures AdaptiveReBatching's max steps and
// largest name at unknown contention k (Theorem 5.1).
func BenchmarkT5AdaptiveSteps(b *testing.B) {
	for _, k := range []int{64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var maxSteps, maxName int64
			for i := 0; i < b.N; i++ {
				alg := core.MustAdaptive(core.AdaptiveConfig{Epsilon: 1})
				res := simulate(b, sim.Config{N: k, Algorithm: alg, Seed: uint64(i)})
				maxSteps += int64(res.MaxSteps())
				maxName += int64(res.MaxName())
			}
			b.ReportMetric(float64(maxSteps)/float64(b.N), "maxsteps/run")
			b.ReportMetric(float64(maxName)/float64(b.N)/float64(k), "maxname/k")
		})
	}
}

// BenchmarkT6FastAdaptiveWork measures FastAdaptiveReBatching's total work
// per participant (Theorem 5.2's O(k log log k)).
func BenchmarkT6FastAdaptiveWork(b *testing.B) {
	for _, k := range []int{64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				alg := core.MustFastAdaptive(core.FastAdaptiveConfig{})
				res := simulate(b, sim.Config{N: k, Algorithm: alg, Seed: uint64(i)})
				total += res.TotalSteps
			}
			b.ReportMetric(float64(total)/float64(b.N)/float64(k), "steps/proc")
		})
	}
}

// BenchmarkT7MarkingGadget runs the §6 Poisson marking simulation
// (Theorem 6.1 / Lemma 6.6).
func BenchmarkT7MarkingGadget(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var layers int64
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.RunMarking(lowerbound.MarkingConfig{N: n, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				layers += int64(res.SurvivedLayers())
			}
			b.ReportMetric(float64(layers)/float64(b.N), "layers/run")
		})
	}
}

// BenchmarkF1Comparison measures max steps for each algorithm family at
// fixed contention (the headline comparison figure).
func BenchmarkF1Comparison(b *testing.B) {
	const n = 1024
	algs := []struct {
		name string
		alg  core.Algorithm
	}{
		{"rebatch-paper", core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})},
		{"rebatch-tuned", core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1, T0Override: 6})},
		{"uniform", baseline.MustUniform(n, 1, 0)},
		{"segscan", baseline.MustSegScan(n, 1, 0)},
		{"linscan", baseline.MustLinearScan(n)},
	}
	for _, a := range algs {
		b.Run(a.name, func(b *testing.B) {
			var maxSteps int64
			for i := 0; i < b.N; i++ {
				res := simulate(b, sim.Config{N: n, Algorithm: a.alg, Seed: uint64(i)})
				maxSteps += int64(res.MaxSteps())
			}
			b.ReportMetric(float64(maxSteps)/float64(b.N), "maxsteps/run")
		})
	}
}

// BenchmarkF2Epsilon sweeps the namespace slack (Eq. 2's time/space
// trade-off).
func BenchmarkF2Epsilon(b *testing.B) {
	const n = 1024
	for _, eps := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: eps})
			var maxSteps int64
			for i := 0; i < b.N; i++ {
				res := simulate(b, sim.Config{N: n, Algorithm: alg, Seed: uint64(i)})
				maxSteps += int64(res.MaxSteps())
			}
			b.ReportMetric(float64(maxSteps)/float64(b.N), "maxsteps/run")
		})
	}
}

// BenchmarkF3Adversaries measures ReBatching under each scheduler policy.
func BenchmarkF3Adversaries(b *testing.B) {
	const n = 1024
	alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
	for _, name := range adversary.Names() {
		b.Run(name, func(b *testing.B) {
			var maxSteps int64
			for i := 0; i < b.N; i++ {
				adv, err := adversary.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				res := simulate(b, sim.Config{N: n, Algorithm: alg, Adversary: adv, Seed: uint64(i)})
				maxSteps += int64(res.MaxSteps())
			}
			b.ReportMetric(float64(maxSteps)/float64(b.N), "maxsteps/run")
		})
	}
}

// BenchmarkF4ConcurrentGetName measures the real concurrent driver:
// acquire+release cycles from parallel goroutines, packed vs padded TAS.
func BenchmarkF4ConcurrentGetName(b *testing.B) {
	layouts := []struct {
		name string
		opts []renaming.Option
	}{
		{"packed", nil},
		{"padded", []renaming.Option{renaming.WithPaddedTAS()}},
	}
	for _, layout := range layouts {
		b.Run(layout.name, func(b *testing.B) {
			nm, err := renaming.NewReBatching(1<<14, layout.opts...)
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

// BenchmarkF5Crashes measures executions with crash injection.
func BenchmarkF5Crashes(b *testing.B) {
	const n = 1024
	alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
	for _, f := range []int{0, n / 4} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			var maxSteps int64
			for i := 0; i < b.N; i++ {
				adv := &adversary.Crashing{Inner: adversary.Random{}, F: f, Every: 2}
				res := simulate(b, sim.Config{N: n, Algorithm: alg, Adversary: adv, Seed: uint64(i)})
				maxSteps += int64(res.MaxSteps())
			}
			b.ReportMetric(float64(maxSteps)/float64(b.N), "maxsteps/run")
		})
	}
}

// BenchmarkF6MoirAnderson measures the deterministic splitter-grid
// comparator: filling a k-participant grid from 8 goroutines, reporting
// ns per acquired name (one-shot, so a fresh grid per iteration).
func BenchmarkF6MoirAnderson(b *testing.B) {
	for _, k := range []int{64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var maxName int64
			for i := 0; i < b.N; i++ {
				nm, err := renaming.NewMoirAnderson(k)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				var worst atomic.Int64
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < k/8; j++ {
							u, err := nm.Acquire(context.Background())
							if err != nil {
								b.Error(err)
								return
							}
							for {
								cur := worst.Load()
								if int64(u) <= cur || worst.CompareAndSwap(cur, int64(u)) {
									break
								}
							}
						}
					}()
				}
				wg.Wait()
				maxName += worst.Load()
			}
			b.ReportMetric(float64(maxName)/float64(b.N)/float64(k), "maxname/k")
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
