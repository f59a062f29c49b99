package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoupledYGivenZInvariant(t *testing.T) {
	// For every realized z, the conditional draw must respect
	// y <= max(0, z-1).
	property := func(seed uint64, rawLambda, rawZ uint8) bool {
		lambda := float64(rawLambda%80)/10 + 0.05
		z := int(rawZ % 40)
		r := New(seed)
		for i := 0; i < 20; i++ {
			y := r.CoupledYGivenZ(lambda, z)
			if z <= 0 && y != 0 {
				return false
			}
			if z > 0 && y > z-1 {
				return false
			}
			if y < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300, Rand: stdRandFrom(New(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestCoupledYGivenZZeroCases(t *testing.T) {
	r := New(9)
	if y := r.CoupledYGivenZ(0, 5); y != 0 {
		t.Errorf("lambda=0: y = %d, want 0", y)
	}
	if y := r.CoupledYGivenZ(3, 0); y != 0 {
		t.Errorf("z=0: y = %d, want 0", y)
	}
	if y := r.CoupledYGivenZ(3, -2); y != 0 {
		t.Errorf("z=-2: y = %d, want 0", y)
	}
}

// TestCoupledYGivenZMatchesJointLaw checks that sampling Z ~ Pois(lambda)
// and then Y via CoupledYGivenZ reproduces the same Y-marginal as the
// direct CoupledPoissonPair — both must have mean ~ CouplingRate(lambda).
func TestCoupledYGivenZMatchesJointLaw(t *testing.T) {
	r := New(17)
	const lambda = 1.5
	const n = 80_000
	sumY := 0.0
	for i := 0; i < n; i++ {
		z := r.Poisson(lambda)
		sumY += float64(r.CoupledYGivenZ(lambda, z))
	}
	gamma := CouplingRate(lambda)
	if mean := sumY / n; math.Abs(mean-gamma) > 0.05 {
		t.Fatalf("conditional-composition mean %v, want ~%v", mean, gamma)
	}
}

func TestNormalApproxCDFAgreesWithExact(t *testing.T) {
	// At lambda just below the cutoff the exact summation is available;
	// the normal approximation must agree within a small absolute error in
	// the bulk (it is only used for lambda > 500 where it is even better).
	const lambda = 400.0
	for _, k := range []int{360, 380, 400, 420, 440} {
		exact := PoissonCDF(lambda, k)
		approx := normalApproxCDF(lambda, k)
		if math.Abs(exact-approx) > 0.01 {
			t.Errorf("k=%d: exact %v vs normal approx %v", k, exact, approx)
		}
	}
}

func TestPoissonQuantileLargeLambdaRegime(t *testing.T) {
	// Above the cutoff, quantiles come from the normal approximation; the
	// median must be ~lambda and quantiles must be monotone in u.
	const lambda = 10_000.0
	med := PoissonQuantile(lambda, 0.5)
	if math.Abs(float64(med)-lambda) > 3*math.Sqrt(lambda) {
		t.Fatalf("median %d too far from lambda %v", med, lambda)
	}
	prev := 0
	for _, u := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		q := PoissonQuantile(lambda, u)
		if q < prev {
			t.Fatalf("quantile not monotone at u=%v: %d < %d", u, q, prev)
		}
		prev = q
	}
}
