package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// runAA measures the benchmark against itself the way the acceptance
// driver does: the whole suite, N times, on the one working tree, every
// run in a process of its own and on a seed of its own (--seed, --seed+1,
// ...), the workload order reversed on every other pass so that no
// workload always runs on a warm or a cold machine. For every end-to-end
// metric it prints the median, the quartiles and the inter-quartile
// spread beside the metric's bound, the bound the spread would derive
// (max(3%, 2 x spread), rounded up to a whole percent), and the move
// between the first half of the runs and the second. A spread beyond the
// bound, a half-to-half move beyond it in either direction — identical
// code getting "better" by more than the bound is as much a failure of the
// benchmark as getting worse — or a wrong output is a non-zero exit.
func runAA(spec *benchSpec, o options) error {
	if o.aa < 4 {
		return fmt.Errorf("-aa %d: need at least 4 runs to have two halves with quartiles", o.aa)
	}
	names := workloadOrder
	if o.workload != "" {
		names = []string{o.workload}
	}
	o.trace, o.traceOut = 0, ""
	samples := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for _, n := range names {
		samples[n] = map[string][]float64{}
	}
	base := o.seed
	for pass := 0; pass < o.aa; pass++ {
		order := append([]string(nil), names...)
		if pass%2 == 1 {
			slices.Reverse(order)
		}
		o.seed = base + uint64(pass)
		for _, name := range order {
			rep, err := runChild(name, o, nil)
			if err != nil {
				return fmt.Errorf("pass %d %s: %w", pass, name, err)
			}
			for k, v := range rep.Metrics {
				samples[name][k] = append(samples[name][k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "aa pass %d/%d %s done\n", pass+1, o.aa, name)
		}
	}
	st := stamp(base, o.seconds)
	fmt.Printf("A/A: %d runs per workload, seeds %d..%d, window %d s, nproc %d, kernel %s, %s\n",
		o.aa, base, base+uint64(o.aa)-1, o.seconds, st.NProc, st.Kernel, st.GoVersion)
	fmt.Printf("%-22s %-14s %12s %12s %12s %8s %8s %7s %12s %12s %8s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread%", "derived%", "bound%", "first-half", "second-half", "moved%", "verdict")
	bad := 0
	for _, name := range names {
		for _, def := range spec.EndToEnd {
			vs := samples[name][def.Name]
			q1, q2, q3 := quartiles(vs)
			half := len(vs) / 2
			a, b := median(vs[:half]), median(vs[half:])
			moved := worseBy(a, b, def.Better == "lower")
			sp := spread(vs)
			verdict := "ok"
			if !withinBound(sp, moved, *def.Bound) {
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Printf("%-22s %-14s %12.4f %12.4f %12.4f %8.2f %8.0f %7.1f %12.4f %12.4f %8.2f  %s\n",
				name, def.Name, q2, q1, q3, sp*100, derivedBound(sp)*100, *def.Bound*100, a, b, moved*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d of %d end-to-end cells outside their bounds", bad, len(names)*len(spec.EndToEnd))
	}
	return nil
}

// withinBound is the A/A rule for one cell: the spread of identical runs
// and the move between their two halves, in either direction, both stay
// inside the metric's bound.
func withinBound(spread, moved, bound float64) bool {
	return spread <= bound && math.Abs(moved) <= bound
}

// derivedBound is the bound a measured A/A spread asks for: twice the
// spread, at least 3%, rounded up to a whole percent.
func derivedBound(spread float64) float64 {
	return math.Ceil(math.Max(0.03, 2*spread)*100-1e-9) / 100
}
