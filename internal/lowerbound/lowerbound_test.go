package lowerbound

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
)

func TestRunMarkingBasics(t *testing.T) {
	res, err := RunMarking(MarkingConfig{N: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) < 2 {
		t.Fatalf("only %d layers recorded", len(res.Layers))
	}
	l0 := res.Layers[0]
	if l0.Layer != 0 || l0.Rate != float64(1<<12)/2 {
		t.Fatalf("layer 0 = %+v", l0)
	}
	// Initial population concentrates around λ⁰ = n/2 (±6σ).
	lambda0 := float64(1<<12) / 2
	if d := math.Abs(float64(l0.Marked) - lambda0); d > 6*math.Sqrt(lambda0) {
		t.Fatalf("initial marked %d far from λ⁰ = %v", l0.Marked, lambda0)
	}
	// Marked counts never increase.
	for i := 1; i < len(res.Layers); i++ {
		if res.Layers[i].Marked > res.Layers[i-1].Marked {
			t.Fatalf("marked grew at layer %d: %d -> %d",
				i, res.Layers[i-1].Marked, res.Layers[i].Marked)
		}
	}
}

// TestRunMarkingSeedDeterministic: one seed, one result. Pruning in map
// order consumed the seeded stream differently on every run.
func TestRunMarkingSeedDeterministic(t *testing.T) {
	cfg := MarkingConfig{N: 1 << 12, Seed: 1}
	want, err := RunMarking(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 5; try++ {
		got, err := RunMarking(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("try %d: same seed, different layers:\n%+v\n%+v", try, got.Layers, want.Layers)
		}
	}
}

func TestRunMarkingRecurrenceLemma66(t *testing.T) {
	// In the uniform instance model the analytic rate evolves as
	// λ_{ℓ+1} = λ_ℓ·γ/(λ_ℓ/S) and must never fall below Lemma 6.6's bound
	// min(λ²/4S, λ/4); in the sub-critical branch it equals it exactly.
	res, err := RunMarking(MarkingConfig{N: 1 << 14, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Layers); i++ {
		st := res.Layers[i]
		if st.Rate < st.RecurrenceLB-1e-9 {
			t.Fatalf("layer %d: rate %v below Lemma 6.6 bound %v", st.Layer, st.Rate, st.RecurrenceLB)
		}
		// Equality check for the quadratic branch (λ_loc <= 1).
		prev := res.Layers[i-1].Rate
		if prev/float64(2*(1<<14)) <= 1 {
			want := prev * prev / (4 * float64(2*(1<<14)))
			if math.Abs(st.Rate-want) > 1e-6*want+1e-12 {
				t.Fatalf("layer %d: rate %v, want exact %v in quadratic branch", st.Layer, st.Rate, want)
			}
		}
	}
}

func TestRunMarkingRealizedTracksRate(t *testing.T) {
	// The realized marked count should track the analytic rate within
	// Poisson noise while the rate is large.
	res, err := RunMarking(MarkingConfig{N: 1 << 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Layers {
		if st.Rate < 100 {
			break
		}
		if d := math.Abs(float64(st.Marked) - st.Rate); d > 8*math.Sqrt(st.Rate) {
			t.Fatalf("layer %d: marked %d vs rate %v (gap %v)", st.Layer, st.Marked, st.Rate, d)
		}
	}
}

func TestRunMarkingSurvivalGrowsWithN(t *testing.T) {
	// Extinction should happen later (or equally late) for much larger n:
	// the whole point of the Θ(log log n) scaling. Compare medians over a
	// few seeds to avoid flakiness.
	median := func(n int) int {
		vals := make([]int, 0, 7)
		for seed := uint64(0); seed < 7; seed++ {
			res, err := RunMarking(MarkingConfig{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, res.SurvivedLayers())
		}
		// insertion sort; 7 elements
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		return vals[len(vals)/2]
	}
	small, big := median(1<<8), median(1<<20)
	if big < small {
		t.Fatalf("survived layers decreased with n: %d (n=2^8) -> %d (n=2^20)", small, big)
	}
	if big < 2 {
		t.Fatalf("n=2^20 survived only %d layers", big)
	}
}

func TestSurvivalProbabilityConstant(t *testing.T) {
	// Theorem 6.1: survival for Ω(log log n) layers with constant
	// probability. At n=2^16 the predicted layer count is small; the
	// measured probability at that horizon must be bounded away from 0.
	const n = 1 << 16
	layers := PredictedLayers(n, 2*n)
	p, err := SurvivalProbability(MarkingConfig{N: n, Seed: 11}, layers, 40)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.2 {
		t.Fatalf("survival probability %v at %d layers; want >= 0.2", p, layers)
	}
}

func TestSurvivalProbabilityValidation(t *testing.T) {
	if _, err := SurvivalProbability(MarkingConfig{N: 16}, 1, 0); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestRunMarkingValidation(t *testing.T) {
	if _, err := RunMarking(MarkingConfig{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
}

func TestPredictedLayers(t *testing.T) {
	small := PredictedLayers(1<<8, 1<<9)
	big := PredictedLayers(1<<20, 1<<21)
	if small < 1 || big < small {
		t.Fatalf("PredictedLayers not monotone: %d vs %d", small, big)
	}
}

func TestRoundsToCompletionReBatching(t *testing.T) {
	const n = 512
	alg := core.MustReBatching(core.ReBatchingConfig{N: n, Epsilon: 1})
	res, err := RoundsToCompletion(n, alg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers < 1 || res.Layers != res.MaxSteps {
		// Under a layered schedule each live process steps once per layer,
		// so layers == max individual steps.
		t.Fatalf("layers %d != max steps %d", res.Layers, res.MaxSteps)
	}
	if res.Active[0] != n {
		t.Fatalf("first layer active = %d, want %d", res.Active[0], n)
	}
}

func TestRoundsUniformNeedsMoreLayersAtScale(t *testing.T) {
	// The layered schedule realizes the lower bound's intuition: uniform
	// probing needs ~log n layers while tuned ReBatching stays near its
	// additive constant. Compare growth between two sizes.
	layersOf := func(alg core.Algorithm, n int) int {
		res, err := RoundsToCompletion(n, alg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.Layers
	}
	uniSmall := layersOf(baseline.MustUniform(256, 1, 0), 256)
	uniBig := layersOf(baseline.MustUniform(4096, 1, 0), 4096)
	rebSmall := layersOf(core.MustReBatching(core.ReBatchingConfig{N: 256, Epsilon: 1, T0Override: 6}), 256)
	rebBig := layersOf(core.MustReBatching(core.ReBatchingConfig{N: 4096, Epsilon: 1, T0Override: 6}), 4096)
	if uniBig <= uniSmall {
		t.Errorf("uniform layers did not grow: %d -> %d", uniSmall, uniBig)
	}
	if rebBig > rebSmall+4 {
		t.Errorf("rebatching layers grew too much: %d -> %d", rebSmall, rebBig)
	}
}
