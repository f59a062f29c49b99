package harness

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// seedAt derives a per-measurement seed from the experiment seed, keeping
// repeated runs independent but reproducible.
func seedAt(base uint64, i int) uint64 {
	return base + uint64(i)*0x9e3779b97f4a7c15
}

// nSweep returns the contention sweep for non-adaptive experiments.
func nSweep(quick bool) []int {
	if quick {
		return []int{1 << 8, 1 << 10, 1 << 12}
	}
	return []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}
}

func repeats(quick bool) int {
	if quick {
		return 3
	}
	return 5
}

// runSeeds is the harness's one seed loop. Execution r of runs is at
// seedAt(seed, r) with the configuration mk builds for it (a fresh
// algorithm or adversary where the caller needs one), and each result is
// passed to each. sim.Run refuses any execution in which two processes
// finished holding the same name, so no table skips that check.
func runSeeds(seed uint64, runs int, mk func() (sim.Config, error), each func(*sim.Result)) error {
	for r := 0; r < runs; r++ {
		c, err := mk()
		if err != nil {
			return err
		}
		c.Seed = seedAt(seed, r)
		res, err := sim.Run(c)
		if err != nil {
			return err
		}
		each(res)
	}
	return nil
}

// measureReBatching runs R executions of ReBatching(n, eps) under adv and
// returns per-run max steps and total steps.
func measureReBatching(n int, eps float64, t0 int, mkAdv func() sim.Adversary, seed uint64, runs int) (maxSteps, totals []float64, err error) {
	alg, err := core.NewReBatching(core.ReBatchingConfig{N: n, Epsilon: eps, T0Override: t0})
	if err != nil {
		return nil, nil, err
	}
	err = runSeeds(seed, runs, func() (sim.Config, error) {
		return sim.Config{N: n, Algorithm: alg, Adversary: mkAdv()}, nil
	}, func(res *sim.Result) {
		maxSteps = append(maxSteps, float64(res.MaxSteps()))
		totals = append(totals, float64(res.TotalSteps))
	})
	return maxSteps, totals, err
}

// runT1 measures Theorem 4.1's individual step complexity:
// max steps <= log log n + O(1) w.h.p., against random and strong
// adversaries.
func runT1(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "ReBatching individual step complexity",
		Claim:   "max steps <= log2 log2 n + O(1) w.h.p. (additive constant t0+beta; t0=53 at eps=1)",
		Columns: []string{"n", "adversary", "max steps", "mean max", "lglg n", "max - (t0+lglg n)"},
	}
	advs := []struct {
		name string
		mk   func() sim.Adversary
	}{
		{"random", func() sim.Adversary { return adversary.Random{} }},
		{"collision", func() sim.Adversary { return &adversary.CollisionSeeker{} }},
	}
	t0 := core.T0(1)
	var xs, ys []float64
	for _, n := range nSweep(cfg.Quick) {
		for _, adv := range advs {
			maxSteps, _, err := measureReBatching(n, 1, 0, adv.mk, cfg.Seed, repeats(cfg.Quick))
			if err != nil {
				return nil, err
			}
			s := stats.Summarize(maxSteps)
			lglg := math.Log2(math.Log2(float64(n)))
			t.AddRow(n, adv.name, int(s.Max), s.Mean, lglg, s.Max-(float64(t0)+lglg))
			if adv.name == "random" {
				xs = append(xs, float64(n))
				ys = append(ys, s.Mean)
			}
		}
	}
	fits := stats.BestFit(xs, ys, stats.LogLog2, stats.Log2, stats.Identity)
	t.AddNote("best growth fit (random adversary, mean max steps): %s", fits[0])
	t.AddNote("runner-up: %s", fits[1])
	t.AddNote("Theorem 4.1 predicts flat-in-n behaviour dominated by the additive t0=%d until lglg n grows", t0)
	return t, nil
}

// runT2 measures Theorem 4.1's total step complexity: O(n) overall, i.e.
// total/n approximately constant across the sweep.
func runT2(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "ReBatching total step complexity",
		Claim:   "total steps = O(n): total/n flat as n grows 256x",
		Columns: []string{"n", "adversary", "mean total", "total/n"},
	}
	advs := []struct {
		name string
		mk   func() sim.Adversary
	}{
		{"random", func() sim.Adversary { return adversary.Random{} }},
		{"collision", func() sim.Adversary { return &adversary.CollisionSeeker{} }},
	}
	var ratios []float64
	for _, n := range nSweep(cfg.Quick) {
		for _, adv := range advs {
			_, totals, err := measureReBatching(n, 1, 0, adv.mk, cfg.Seed, repeats(cfg.Quick))
			if err != nil {
				return nil, err
			}
			s := stats.Summarize(totals)
			ratio := s.Mean / float64(n)
			t.AddRow(n, adv.name, s.Mean, ratio)
			if adv.name == "random" {
				ratios = append(ratios, ratio)
			}
		}
	}
	rs := stats.Summarize(ratios)
	t.AddNote("total/n across the sweep (random): min %.2f max %.2f — flat ratio confirms O(n) total work", rs.Min, rs.Max)
	return t, nil
}

// runT3 counts the processes that reach each batch (n_i of Lemma 4.2) and
// compares them against the analytic bound n*_i.
func runT3(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "T3",
		Title:   "Survivors per batch",
		Claim:   "n_i <= n*_i = eps*n/2^(2^i+i+delta) for 1<=i<kappa, n*_kappa = log^2 n (Lemma 4.2, delta->0, eps=1 here)",
		Columns: []string{"n", "adversary", "batch", "survivors n_i", "bound n*_i"},
	}
	ns := []int{1 << 10, 1 << 14}
	if cfg.Quick {
		ns = []int{1 << 10}
	}
	advs := []struct {
		name string
		mk   func() sim.Adversary
	}{
		{"random", func() sim.Adversary { return adversary.Random{} }},
		{"collision", func() sim.Adversary { return &adversary.CollisionSeeker{} }},
	}
	for _, n := range ns {
		alg, err := core.NewReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
		if err != nil {
			return nil, err
		}
		kappa := alg.MaxBatch()
		batchOf := func(loc int) int {
			for i := 0; i <= kappa; i++ {
				lo, hi := alg.BatchBounds(i)
				if loc >= lo && loc < hi {
					return i
				}
			}
			return -1
		}
		for _, adv := range advs {
			// survivors[i] = processes that probed batch i at least once.
			seen := make([]map[int]bool, kappa+1)
			for i := range seen {
				seen[i] = make(map[int]bool)
			}
			err := runSeeds(cfg.Seed, 1, func() (sim.Config, error) {
				return sim.Config{
					N:         n,
					Algorithm: alg,
					Adversary: adv.mk(),
					Trace: func(ev sim.Event) {
						if b := batchOf(ev.Loc); b >= 0 {
							seen[b][ev.PID] = true
						}
					},
				}, nil
			}, func(*sim.Result) {})
			if err != nil {
				return nil, err
			}
			for i := 1; i <= kappa; i++ {
				var bound float64
				if i < kappa {
					bound = float64(n) / math.Pow(2, math.Pow(2, float64(i))+float64(i))
				} else {
					lg := math.Log2(float64(n))
					bound = lg * lg
				}
				t.AddRow(n, adv.name, i, len(seen[i]), bound)
			}
		}
	}
	t.AddNote("n_i counts processes probing batch i, i.e. processes that failed every probe on batches < i")
	return t, nil
}

// runT4 measures how often the backup phase is entered as a function of
// beta; Lemma 4.2 puts the probability at 1/n^(beta-o(1)).
func runT4(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "T4",
		Title:   "Backup-phase frequency",
		Claim:   "P(any process reaches backup) <= 1/n^(beta-o(1)) — zero hits expected at these scales",
		Columns: []string{"n", "beta", "runs", "runs w/ backup", "procs in backup"},
	}
	ns := []int{1 << 8, 1 << 10, 1 << 12}
	runs := 40
	if cfg.Quick {
		ns = []int{1 << 8, 1 << 10}
		runs = 10
	}
	for _, n := range ns {
		for _, beta := range []int{1, 2, 3} {
			alg, err := core.NewReBatching(core.ReBatchingConfig{N: n, Epsilon: 1, Beta: beta})
			if err != nil {
				return nil, err
			}
			// Any step beyond the total batch-probe budget is a backup probe.
			budget := 0
			for i := 0; i <= alg.MaxBatch(); i++ {
				budget += alg.BatchProbes(i)
			}
			runsWithBackup, procsInBackup := 0, 0
			err = runSeeds(cfg.Seed, runs, func() (sim.Config, error) {
				return sim.Config{N: n, Algorithm: alg}, nil
			}, func(res *sim.Result) {
				hit := 0
				for _, s := range res.Steps {
					if s > budget {
						hit++
					}
				}
				if hit > 0 {
					runsWithBackup++
					procsInBackup += hit
				}
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(n, beta, runs, runsWithBackup, procsInBackup)
		}
	}
	return t, nil
}

// runF2 sweeps the namespace slack epsilon at fixed n, showing the
// time/space trade-off of Eq. (2) and the effect of the analysis constant.
func runF2(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F2",
		Title:   "Namespace/time trade-off",
		Claim:   "t0 = ceil(17 ln(8e/eps)/eps) shrinks as eps grows; max steps tracks t0 + lglg n",
		Columns: []string{"eps", "namespace m", "t0 (Eq.2)", "max steps", "total/n", "max steps (t0=6)"},
	}
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 10
	}
	for _, eps := range []float64{0.25, 0.5, 1, 2} {
		maxSteps, totals, err := measureReBatching(n, eps, 0, func() sim.Adversary { return adversary.Random{} }, cfg.Seed, repeats(cfg.Quick))
		if err != nil {
			return nil, err
		}
		tunedMax, _, err := measureReBatching(n, eps, 6, func() sim.Adversary { return adversary.Random{} }, cfg.Seed, repeats(cfg.Quick))
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(maxSteps)
		st := stats.Summarize(totals)
		m := int(math.Ceil((1 + eps) * float64(n)))
		t.AddRow(fmt.Sprintf("%.2f", eps), m, core.T0(eps), int(s.Max), st.Mean/float64(n), int(stats.Summarize(tunedMax).Max))
	}
	t.AddNote("n = %d, random adversary; last column overrides the paper constant with t0=6", n)
	return t, nil
}
