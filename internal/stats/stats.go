// Package stats provides the small statistics toolbox used by the
// experiment harness: summaries, quantiles, and least-squares fits against
// the growth functions the paper's theorems claim (log n, log log n,
// (log log n)², linear).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual scalar description of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	P50  float64
	P95  float64
	P99  float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(varSum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Quantile(sorted, 0.50)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation. It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Transform is a named x-axis transformation for growth-rate fits.
type Transform struct {
	Name string
	F    func(float64) float64
}

// The growth candidates the paper's claims distinguish between. Log2 and
// friends clamp at tiny positive inputs so that n = 1, 2 don't produce
// -Inf/NaN in fits.
var (
	Identity = Transform{Name: "n", F: func(x float64) float64 { return x }}
	Log2     = Transform{Name: "log n", F: func(x float64) float64 { return math.Log2(math.Max(x, 2)) }}
	LogLog2  = Transform{Name: "log log n", F: func(x float64) float64 {
		return math.Log2(math.Max(math.Log2(math.Max(x, 2)), 1))
	}}
	LogLogSq = Transform{Name: "(log log n)^2", F: func(x float64) float64 {
		l := math.Log2(math.Max(math.Log2(math.Max(x, 2)), 1))
		return l * l
	}}
)

// FitResult is a least-squares line y ≈ Intercept + Slope·T(x) with its
// coefficient of determination.
type FitResult struct {
	Transform string
	Slope     float64
	Intercept float64
	R2        float64
}

func (f FitResult) String() string {
	return fmt.Sprintf("y = %.3f + %.3f·%s (R²=%.4f)", f.Intercept, f.Slope, f.Transform, f.R2)
}

// Fit least-squares fits ys against t(xs). It panics unless len(xs) ==
// len(ys) >= 2.
func Fit(xs, ys []float64, t Transform) FitResult {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic(fmt.Sprintf("stats: Fit needs two aligned samples, got %d/%d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	tx := make([]float64, len(xs))
	for i, x := range xs {
		tx[i] = t.F(x)
		sx += tx[i]
		sy += ys[i]
		sxx += tx[i] * tx[i]
		sxy += tx[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	res := FitResult{Transform: t.Name}
	if denom == 0 {
		// Degenerate x: horizontal fit.
		res.Intercept = sy / n
	} else {
		res.Slope = (n*sxy - sx*sy) / denom
		res.Intercept = (sy - res.Slope*sx) / n
	}
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range ys {
		pred := res.Intercept + res.Slope*tx[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	if ssTot == 0 {
		// Constant y is perfectly explained by any horizontal line.
		res.R2 = 1
	} else {
		res.R2 = 1 - ssRes/ssTot
	}
	return res
}

// BestFit fits ys against every candidate transform and returns the fits
// sorted by descending R² (ties broken by candidate order).
func BestFit(xs, ys []float64, candidates ...Transform) []FitResult {
	if len(candidates) == 0 {
		candidates = []Transform{LogLog2, Log2, LogLogSq, Identity}
	}
	fits := make([]FitResult, len(candidates))
	for i, c := range candidates {
		fits[i] = Fit(xs, ys, c)
	}
	sort.SliceStable(fits, func(i, j int) bool { return fits[i].R2 > fits[j].R2 })
	return fits
}

// Ratio returns element-wise ys[i]/xs[i]; it panics on length mismatch and
// maps division by zero to NaN.
func Ratio(ys, xs []float64) []float64 {
	if len(xs) != len(ys) {
		panic("stats: Ratio length mismatch")
	}
	out := make([]float64, len(xs))
	for i := range xs {
		if xs[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = ys[i] / xs[i]
		}
	}
	return out
}
