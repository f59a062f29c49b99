package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"

	renaming "repro"
)

// runF1 is the headline comparison: maximum individual step complexity of
// ReBatching (paper constants and tuned), uniform probing, segmented
// scanning, and linear scanning, across a contention sweep.
func runF1(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F1",
		Title:   "Algorithm comparison: max steps vs n",
		Claim:   "ReBatching flat (lglg n + const) vs uniform's log n vs linear scan's n",
		Columns: []string{"n", "rebatch(paper)", "rebatch(t0=6)", "uniform", "segscan", "linscan"},
	}
	ns := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14}
	if cfg.Quick {
		ns = []int{1 << 8, 1 << 10}
	}
	// Linear scan's total work is Theta(n^2); cap its sweep so F1 stays fast.
	linCap := 1 << 12
	runs := repeats(cfg.Quick)

	measure := func(alg core.Algorithm, n int) (float64, error) {
		var worst float64
		for r := 0; r < runs; r++ {
			res, err := sim.Run(sim.Config{N: n, Algorithm: alg, Seed: seedAt(cfg.Seed, r)})
			if err != nil {
				return 0, err
			}
			if err := res.UniqueNames(); err != nil {
				return 0, err
			}
			if m := float64(res.MaxSteps()); m > worst {
				worst = m
			}
		}
		return worst, nil
	}

	series := make(map[string][]float64, 5)
	for _, n := range ns {
		rebPaper, err := measure(core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1}), n)
		if err != nil {
			return nil, err
		}
		rebTuned, err := measure(core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1, T0Override: 6}), n)
		if err != nil {
			return nil, err
		}
		uni, err := measure(baseline.MustUniform(n, 1, 0), n)
		if err != nil {
			return nil, err
		}
		seg, err := measure(baseline.MustSegScan(n, 1, 0), n)
		if err != nil {
			return nil, err
		}
		lin := "-"
		if n <= linCap {
			v, err := measure(baseline.MustLinearScan(n), n)
			if err != nil {
				return nil, err
			}
			lin = fmt.Sprintf("%d", int(v))
			series["linscan"] = append(series["linscan"], v)
		}
		t.AddRow(n, int(rebPaper), int(rebTuned), int(uni), int(seg), lin)
		series["rebatch(paper)"] = append(series["rebatch(paper)"], rebPaper)
		series["rebatch(t0=6)"] = append(series["rebatch(t0=6)"], rebTuned)
		series["uniform"] = append(series["uniform"], uni)
	}
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	for _, name := range []string{"rebatch(t0=6)", "uniform"} {
		ys := series[name]
		if len(ys) == len(xs) {
			fits := stats.BestFit(xs, ys, stats.LogLog2, stats.Log2, stats.Identity)
			t.AddNote("%s growth: best fit %s", name, fits[0])
		}
	}
	t.AddNote("paper-constant ReBatching carries the additive t0=53; its curve is flat but starts above uniform until n ~ 2^53 (see EXPERIMENTS.md)")
	return t, nil
}

// runF3 compares ReBatching's step complexity across adversaries: the
// upper bound is claimed against the strongest scheduler.
func runF3(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F3",
		Title:   "Adversary ablation (ReBatching)",
		Claim:   "Thm 4.1 holds against a strong adaptive adversary; strong schedulers cost only a constant factor",
		Columns: []string{"n", "adversary", "max steps", "total/n"},
	}
	ns := []int{1 << 10, 1 << 12}
	if cfg.Quick {
		ns = []int{1 << 10}
	}
	for _, n := range ns {
		alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
		for _, name := range adversary.Names() {
			var worstMax float64
			var totals []float64
			for r := 0; r < repeats(cfg.Quick); r++ {
				adv, err := adversary.ByName(name)
				if err != nil {
					return nil, err
				}
				res, err := sim.Run(sim.Config{N: n, Algorithm: alg, Adversary: adv, Seed: seedAt(cfg.Seed, r)})
				if err != nil {
					return nil, err
				}
				if err := res.UniqueNames(); err != nil {
					return nil, err
				}
				if m := float64(res.MaxSteps()); m > worstMax {
					worstMax = m
				}
				totals = append(totals, float64(res.TotalSteps))
			}
			t.AddRow(n, name, int(worstMax), stats.Summarize(totals).Mean/float64(n))
		}
	}
	return t, nil
}

// runF4 profiles the real concurrent driver: probe counts under actual
// goroutine contention. Wall-clock cost and the padded/packed layout
// ablation are BenchmarkF4ConcurrentGetName's (probes do not depend on
// layout).
func runF4(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F4",
		Title:   "Real-concurrency probe profile",
		Claim:   "goroutine-contended renaming costs O(lglg n) probes",
		Columns: []string{"goroutines", "probes/acquire"},
	}
	n := 1 << 14
	if cfg.Quick {
		n = 1 << 12
	}
	for _, g := range []int{1, 4, 16, 64, 256} {
		nm, err := renaming.NewReBatching(n,
			renaming.WithCounting(),
			renaming.WithSeed(seedAt(cfg.Seed, g)))
		if err != nil {
			return nil, err
		}
		perG := n / g
		if perG > 64 {
			perG = 64 // bound the run; per-call cost is what matters
		}
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					if _, err := nm.Acquire(context.Background()); err != nil {
						panic(err) // capacity sized to make this impossible
					}
				}
			}()
		}
		wg.Wait()
		ops, _, _ := nm.Probes()
		t.AddRow(g, float64(ops)/float64(g*perG))
	}
	t.AddNote("namespace n=%d, GOMAXPROCS=%d; probes/acquire is schedule-dependent but stays O(lglg n)+t0 tail", n, runtime.GOMAXPROCS(0))
	return t, nil
}

// runF5 injects crash failures and checks that survivors still terminate
// quickly with small names (wait-freedom under the paper's crash model).
func runF5(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F5",
		Title:   "Crash-failure tolerance",
		Claim:   "renaming is wait-free: crashes waste namespace but never block survivors",
		Columns: []string{"n", "crashes f", "survivor max steps", "total steps", "max name"},
	}
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 10
	}
	alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
	for _, f := range []int{0, n / 4, n / 2} {
		var worstMax, worstName float64
		var totals []float64
		for r := 0; r < repeats(cfg.Quick); r++ {
			adv := &adversary.Crashing{Inner: adversary.Random{}, F: f, Every: 2}
			res, err := sim.Run(sim.Config{N: n, Algorithm: alg, Adversary: adv, Seed: seedAt(cfg.Seed, r)})
			if err != nil {
				return nil, err
			}
			if err := res.UniqueNames(); err != nil {
				return nil, err
			}
			for p, s := range res.Steps {
				if !res.Crashed[p] && float64(s) > worstMax {
					worstMax = float64(s)
				}
			}
			if m := float64(res.MaxName()); m > worstName {
				worstName = m
			}
			totals = append(totals, float64(res.TotalSteps))
		}
		t.AddRow(n, f, int(worstMax), stats.Summarize(totals).Mean, int(worstName))
	}
	return t, nil
}
