// Package lowerbound implements the machinery of the paper's §6 lower
// bound (Theorem 6.1): any loose-renaming algorithm using O(n) TAS objects
// must, with constant probability, leave some process running after
// Ω(log log n) steps of the layered oblivious schedule.
//
// Two complementary experiments are provided.
//
// Marking (the proof's machinery, §6.1–6.2): process instances are created
// by a Poisson sprinkling (X⁰_i ~ Pois(n/2M)); the execution proceeds in
// layers, each instance probing one TAS location per layer; after each
// layer the coupling gadget of Lemmas 6.4/6.5 prunes survivors down to
// "marked" instances whose per-type counts remain independent Poissons.
// The marked rate then provably obeys Lemma 6.6's recurrence
//
//	λ_{ℓ+1} >= (λ_ℓ)²/(4s)   (λ_ℓ <= s/2),
//
// which keeps the marked population alive for Ω(log log n) layers. This
// package simulates the procedure in the uniform-probing instance model —
// the M → ∞ limit in which every instance carries an independent uniform
// probe path and the per-location rate is exactly λ_ℓ/s, making the
// recurrence hold with equality and the whole gadget numerically checkable.
//
// Rounds (the statement being proved): run any actual algorithm under the
// layered oblivious adversary and count the layers until every process has
// acquired a name. Theorem 6.1 says this cannot beat c·log log n; the upper
// bounds say ReBatching meets it up to the additive constant.
package lowerbound

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// MarkingConfig parameterizes one simulation of the §6 marking procedure.
type MarkingConfig struct {
	// N is the paper's n; the initial marked population has rate λ⁰ = N/2.
	N int
	// S is the number of TAS locations per layer; the paper's final
	// argument uses s+m >= 2n locations so that r⁰ = λ⁰/S <= 1/4.
	// Defaults to 2N.
	S int
	// MaxLayers stops the simulation even if marked instances remain.
	// Defaults to 64 (far beyond extinction for any feasible N).
	MaxLayers int
	// Seed drives all randomness.
	Seed uint64
}

// LayerStat describes the marked population entering one layer.
type LayerStat struct {
	// Layer is 0 for the initial population, 1 after one pruning, ...
	Layer int
	// Marked is the realized number of marked instances.
	Marked int
	// Rate is the analytic rate λ_ℓ of the marked population.
	Rate float64
	// RecurrenceLB is Lemma 6.6's lower bound computed from the previous
	// layer's rate: min((λ_{ℓ-1})²/(4S), λ_{ℓ-1}/4); zero for layer 0.
	RecurrenceLB float64
}

// MarkingResult reports a full marking simulation.
type MarkingResult struct {
	// Layers holds one entry per layer boundary, starting with layer 0
	// (the initial population), until extinction or MaxLayers.
	Layers []LayerStat
	// ExtinctionLayer is the first layer with zero marked instances, or
	// -1 if the simulation stopped at MaxLayers with survivors.
	ExtinctionLayer int
}

// SurvivedLayers returns the number of prunings the population survived:
// the largest ℓ with a nonzero marked count.
func (r *MarkingResult) SurvivedLayers() int {
	last := 0
	for _, st := range r.Layers {
		if st.Marked > 0 {
			last = st.Layer
		}
	}
	return last
}

// RunMarking simulates the marking procedure once.
//
// Instances follow the uniform-probing model: each marked instance probes
// an independently uniform location in every layer. Per location j the
// realized count Z_j is pruned to Y_j marked survivors, with Y_j drawn from
// the gadget's conditional law given Z_j (Lemmas 6.4/6.5); survivors are a
// uniformly random Y_j-subset, which is exactly "the last Y_j positions of
// a uniformly random permutation".
func RunMarking(cfg MarkingConfig) (*MarkingResult, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("lowerbound: N = %d, need >= 2", cfg.N)
	}
	if cfg.S == 0 {
		cfg.S = 2 * cfg.N
	}
	if cfg.S < 1 {
		return nil, fmt.Errorf("lowerbound: S = %d, need >= 1", cfg.S)
	}
	if cfg.MaxLayers == 0 {
		cfg.MaxLayers = 64
	}

	rng := xrand.New(cfg.Seed)
	lambda := float64(cfg.N) / 2
	marked := rng.Poisson(lambda) // Σ_i X⁰_i ~ Pois(λ⁰)

	res := &MarkingResult{ExtinctionLayer: -1}
	res.Layers = append(res.Layers, LayerStat{Layer: 0, Marked: marked, Rate: lambda})

	// In the uniform model every location has rate λ/S, so the rate
	// multiplier γ/λ_loc is the same for all locations and the aggregate
	// rate evolves deterministically.
	buckets := make(map[int]int, marked)
	touched := make([]int, 0, marked) // occupied locations, first-touch order
	for layer := 1; layer <= cfg.MaxLayers && marked > 0; layer++ {
		locRate := lambda / float64(cfg.S)
		gamma := xrand.CouplingRate(locRate)

		// Scatter the marked instances over the S locations.
		clear(buckets)
		touched = touched[:0]
		for i := 0; i < marked; i++ {
			loc := rng.Intn(cfg.S)
			if buckets[loc] == 0 {
				touched = append(touched, loc)
			}
			buckets[loc]++
		}
		// Prune each occupied location with the coupled Y | Z draw. (Which
		// instances survive is irrelevant here because instances are
		// exchangeable in the uniform model; only counts matter.) The draws
		// consume the seeded stream, so locations are visited in first-touch
		// order — ranging over the map would reorder them run to run.
		survivors := 0
		for _, loc := range touched {
			z := buckets[loc]
			y := rng.CoupledYGivenZ(locRate, z)
			if y > max(0, z-1) {
				return nil, fmt.Errorf("lowerbound: coupling violated: Y=%d Z=%d", y, z)
			}
			survivors += y
		}

		recurrenceLB := math.Min(lambda*lambda/(4*float64(cfg.S)), lambda/4)
		lambda *= gamma / locRate
		marked = survivors
		res.Layers = append(res.Layers, LayerStat{
			Layer:        layer,
			Marked:       marked,
			Rate:         lambda,
			RecurrenceLB: recurrenceLB,
		})
		if marked == 0 {
			res.ExtinctionLayer = layer
		}
	}
	return res, nil
}

// SurvivalProbability estimates, over runs independent simulations, the
// probability that marked instances survive at least `layers` prunings.
// Theorem 6.1's final argument needs this to be Ω(1) at ℓ = Θ(log log n).
func SurvivalProbability(cfg MarkingConfig, layers, runs int) (float64, error) {
	if runs < 1 {
		return 0, fmt.Errorf("lowerbound: runs = %d, need >= 1", runs)
	}
	hits := 0
	for r := 0; r < runs; r++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(r)*0x9e3779b97f4a7c15
		res, err := RunMarking(c)
		if err != nil {
			return 0, err
		}
		if res.SurvivedLayers() >= layers {
			hits++
		}
	}
	return float64(hits) / float64(runs), nil
}

// PredictedLayers returns the layer count ℓ* at which Theorem 6.1's final
// argument still guarantees a marked rate λ^ℓ >= 4, for s+m = S and
// r⁰ = (n/2)/S. Solving the recurrence solution r^ℓ >= 4(r⁰/4)^(2^ℓ) for
// λ^ℓ = S·r^ℓ >= 4 gives
//
//	ℓ* = ⌊ lg lg S − lg lg(4/r⁰) ⌋,
//
// which is Θ(log log n). (The extended abstract prints a "+" between the
// two terms in its final line; substituting that choice back into the
// recurrence solution yields λ^ℓ ≪ 4, so the "+" is a typo for "−" —
// EXPERIMENTS.md T7 documents the check numerically.)
func PredictedLayers(n, s int) int {
	r0 := float64(n) / 2 / float64(s)
	if r0 <= 0 || r0 > 0.25 {
		r0 = 0.25
	}
	v := math.Log2(math.Log2(float64(s))) - math.Log2(math.Log2(4/r0))
	if v < 1 {
		return 1
	}
	return int(v)
}

// RoundsResult reports one layered execution of a real algorithm.
type RoundsResult struct {
	// Layers is the number of layers until every process finished.
	Layers int
	// Active[ℓ] is the number of processes still running when layer ℓ+1
	// began.
	Active []int
	// MaxSteps is the maximum individual step complexity observed.
	MaxSteps int
}

// RoundsToCompletion runs n processes of alg under the layered oblivious
// adversary (fresh random permutation per layer — the §6 schedule) and
// reports how many layers the execution needed.
func RoundsToCompletion(n int, alg core.Algorithm, seed uint64) (*RoundsResult, error) {
	var active []int
	adv := &adversary.Layered{OnLayer: func(layer, count int) {
		active = append(active, count)
	}}
	res, err := sim.Run(sim.Config{N: n, Algorithm: alg, Adversary: adv, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := res.UniqueNames(); err != nil {
		return nil, err
	}
	return &RoundsResult{
		Layers:   adv.Layer(),
		Active:   active,
		MaxSteps: res.MaxSteps(),
	}, nil
}
