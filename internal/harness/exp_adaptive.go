package harness

import (
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// kSweep returns the contention sweep for adaptive experiments (k is the
// actual contention; the algorithms do not know it).
func kSweep(quick bool) []int {
	if quick {
		return []int{1 << 4, 1 << 7, 1 << 10}
	}
	return []int{1 << 4, 1 << 6, 1 << 8, 1 << 10, 1 << 12}
}

// measureAdaptive runs R executions of alg with contention k and returns
// per-run (max individual steps, total steps, max name).
func measureAdaptive(mkAlg func() core.Algorithm, k int, seed uint64, runs int) (maxSteps, totals, maxNames []float64, err error) {
	err = runSeeds(seed, runs, func() (sim.Config, error) {
		return sim.Config{N: k, Algorithm: mkAlg()}, nil
	}, func(res *sim.Result) {
		maxSteps = append(maxSteps, float64(res.MaxSteps()))
		totals = append(totals, float64(res.TotalSteps))
		maxNames = append(maxNames, float64(res.MaxName()))
	})
	return maxSteps, totals, maxNames, err
}

// runT5 measures Theorem 5.1: AdaptiveReBatching's step complexity
// O((log log k)^2) and namespace O(k), with k unknown to the algorithm.
func runT5(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "T5",
		Title:   "AdaptiveReBatching steps and names",
		Claim:   "max steps = O((lglg k)^2), largest name = O(k), w.h.p. (Thm 5.1)",
		Columns: []string{"k", "max steps", "mean max", "(lglg k)^2", "max name", "name/k"},
	}
	mk := func() core.Algorithm { return core.MustAdaptive(core.AdaptiveConfig{Epsilon: 1}) }
	var xs, ys []float64
	for _, k := range kSweep(cfg.Quick) {
		maxSteps, _, maxNames, err := measureAdaptive(mk, k, cfg.Seed, repeats(cfg.Quick))
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(maxSteps)
		nm := stats.Summarize(maxNames)
		lglg := math.Log2(math.Max(math.Log2(float64(k)), 1))
		t.AddRow(k, int(s.Max), s.Mean, lglg*lglg, int(nm.Max), nm.Max/float64(k))
		xs = append(xs, float64(k))
		ys = append(ys, s.Mean)
	}
	fits := stats.BestFit(xs, ys, stats.LogLogSq, stats.Log2, stats.Identity)
	t.AddNote("best growth fit (mean max steps): %s", fits[0])
	t.AddNote("paper bound on largest name: sum_{i<=ceil(lg k)} m_i <= 4(1+eps)k = 8k at eps=1")
	return t, nil
}

// runT6 measures Theorem 5.2: FastAdaptiveReBatching's total work
// O(k log log k), against AdaptiveReBatching's Theta(k (log log k)^2).
func runT6(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "T6",
		Title:   "FastAdaptiveReBatching total work",
		Claim:   "total steps = O(k lglg k); crossover vs Adaptive's k(lglg k)^2 total (Thm 5.2)",
		Columns: []string{"k", "fast total", "fast/(k lglg k)", "adaptive total", "fast/adaptive", "max name/k"},
	}
	mkFast := func() core.Algorithm { return core.MustFastAdaptive(core.FastAdaptiveConfig{}) }
	mkAdpt := func() core.Algorithm { return core.MustAdaptive(core.AdaptiveConfig{Epsilon: 1}) }
	var ratios []float64
	for _, k := range kSweep(cfg.Quick) {
		_, fastTotals, fastNames, err := measureAdaptive(mkFast, k, cfg.Seed, repeats(cfg.Quick))
		if err != nil {
			return nil, err
		}
		_, adptTotals, _, err := measureAdaptive(mkAdpt, k, cfg.Seed, repeats(cfg.Quick))
		if err != nil {
			return nil, err
		}
		fast := stats.Summarize(fastTotals)
		adpt := stats.Summarize(adptTotals)
		nm := stats.Summarize(fastNames)
		lglg := math.Max(math.Log2(math.Max(math.Log2(float64(k)), 1)), 1)
		ratio := fast.Mean / (float64(k) * lglg)
		ratios = append(ratios, ratio)
		t.AddRow(k, fast.Mean, ratio, adpt.Mean, fast.Mean/adpt.Mean, nm.Max/float64(k))
	}
	rs := stats.Summarize(ratios)
	t.AddNote("fast/(k lglg k) across sweep: min %.2f max %.2f — bounded ratio confirms O(k lglg k)", rs.Min, rs.Max)
	return t, nil
}
