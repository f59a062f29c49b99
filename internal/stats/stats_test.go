package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
	// Sample std of 1..5 is sqrt(2.5).
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {0.25, 17.5},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestFitRecoversLine(t *testing.T) {
	xs := []float64{4, 16, 256, 65536, 1 << 20}
	// y = 2 + 3*log2(x)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*math.Log2(x)
	}
	f := Fit(xs, ys, Log2)
	if math.Abs(f.Slope-3) > 1e-9 || math.Abs(f.Intercept-2) > 1e-9 || f.R2 < 1-1e-12 {
		t.Fatalf("fit = %+v, want slope 3 intercept 2 R2 1", f)
	}
}

func TestFitConstantY(t *testing.T) {
	f := Fit([]float64{1, 2, 3}, []float64{7, 7, 7}, Identity)
	if f.R2 != 1 {
		t.Fatalf("constant y R2 = %v, want 1", f.R2)
	}
}

func TestFitDegenerateX(t *testing.T) {
	f := Fit([]float64{5, 5, 5}, []float64{1, 2, 3}, Identity)
	if f.Slope != 0 || math.Abs(f.Intercept-2) > 1e-12 {
		t.Fatalf("degenerate fit %+v", f)
	}
}

func TestBestFitIdentifiesGrowth(t *testing.T) {
	xs := []float64{16, 64, 256, 1024, 4096, 16384, 65536, 1 << 18, 1 << 20}
	// A log log n signal with a small bounded wobble must be classified as
	// log log n over log n / linear alternatives.
	ys := make([]float64, len(xs))
	for i, x := range xs {
		wobble := 0.05 * math.Sin(float64(i))
		ys[i] = 1 + 2*LogLog2.F(x) + wobble
	}
	fits := BestFit(xs, ys)
	if fits[0].Transform != "log log n" {
		t.Fatalf("best fit = %v, want log log n; all: %v", fits[0], fits)
	}
}

func TestBestFitLogVsLogLog(t *testing.T) {
	xs := []float64{16, 64, 256, 1024, 4096, 16384, 65536, 1 << 18, 1 << 20}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Log2(x)
		_ = i
	}
	fits := BestFit(xs, ys)
	if fits[0].Transform != "log n" {
		t.Fatalf("best fit = %v, want log n", fits[0])
	}
}

func TestTransformsAtSmallInputs(t *testing.T) {
	// Transforms must be finite at n = 1 and 2 (clamped).
	for _, tr := range []Transform{Identity, Log2, LogLog2, LogLogSq} {
		for _, x := range []float64{1, 2} {
			if v := tr.F(x); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s(%v) = %v", tr.Name, x, v)
			}
		}
	}
}

func TestRatio(t *testing.T) {
	r := Ratio([]float64{2, 9, 5}, []float64{1, 3, 0})
	if r[0] != 2 || r[1] != 3 || !math.IsNaN(r[2]) {
		t.Fatalf("Ratio = %v", r)
	}
}

func TestFitResultString(t *testing.T) {
	f := FitResult{Transform: "log n", Slope: 1.5, Intercept: 0.25, R2: 0.9876}
	if got := f.String(); got != "y = 0.250 + 1.500·log n (R²=0.9876)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestQuantileMonotoneProperty checks Quantile is monotone in q for random
// sorted samples.
func TestQuantileMonotoneProperty(t *testing.T) {
	property := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		sorted := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sorted = append(sorted, v)
			}
		}
		if len(sorted) == 0 {
			return true
		}
		sortFloats(sorted)
		a, b := math.Mod(math.Abs(q1), 1), math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(sorted, a) <= Quantile(sorted, b)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
