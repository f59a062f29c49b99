package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {0.1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("odd: got %v", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}

// The trimmed mean drops the tail at either end and moves smoothly when a
// bimodal sample's balance shifts, where the median jumps.
func TestTrimmedMean(t *testing.T) {
	vs := []float64{1000, 10, 10, 10, 10, 10, 10, 10, 10, 1}
	if got := trimmedMean(vs, 0.1); got != 10 {
		t.Errorf("tails kept: got %v, want 10", got)
	}
	if vs[0] != 1000 {
		t.Error("trimmedMean reordered its input")
	}
	a := trimmedMean([]float64{50, 50, 50, 50, 50, 300, 300, 300, 300, 300}, 0.1)
	b := trimmedMean([]float64{50, 50, 50, 50, 300, 300, 300, 300, 300, 300}, 0.1)
	if !near(a, 175) || !near(b, 206.25) {
		t.Errorf("bimodal sample: %v then %v, want 175 then 206.25", a, b)
	}
}

// The A/A rule is two-sided: identical code that reads better by more
// than the bound fails the cell just as one that reads worse does, and so
// does a spread beyond the bound, setup_s included.
func TestWithinBound(t *testing.T) {
	for _, c := range []struct {
		spread, moved, bound float64
		want                 bool
	}{
		{0.02, 0.01, 0.05, true},
		{0.02, 0.06, 0.05, false},
		{0.02, -0.68, 0.25, false},
		{0.30, 0.00, 0.25, false},
		{0.05, -0.05, 0.05, true},
	} {
		if got := withinBound(c.spread, c.moved, c.bound); got != c.want {
			t.Errorf("withinBound(spread %v, moved %v, bound %v) = %v", c.spread, c.moved, c.bound, got)
		}
	}
}

// A bound is twice the A/A spread, at least 3%, rounded up to a percent.
func TestDerivedBound(t *testing.T) {
	for _, c := range []struct{ spread, want float64 }{
		{0, 0.03}, {0.015, 0.03}, {0.0151, 0.04}, {0.02, 0.04}, {0.031, 0.07}, {0.12, 0.24},
	} {
		if got := derivedBound(c.spread); !near(got, c.want) {
			t.Errorf("derivedBound(%v) = %v, want %v", c.spread, got, c.want)
		}
	}
}

// Seconds a neighbour took most of must not move the throughput figure,
// and completions outside the window must not count.
func TestSecondRates(t *testing.T) {
	var offsets []int64
	for sec := 0; sec < 5; sec++ {
		n := 1001 // evenly over the second: 1000 intervals of 1 ms
		gap := int64(1e6)
		if sec != 2 {
			n, gap = 101, 1e7 // the stolen seconds: a tenth of the rate
		}
		for i := 0; i < n; i++ {
			offsets = append(offsets, int64(sec)*1e9+int64(i)*gap*999/1000) // just inside the second
		}
	}
	offsets = append(offsets, 5e9+1, -5e9) // past the window; before it
	rates := secondRates(offsets, nil, 5)
	if len(rates) != 5 || rates[0] < 99.9 || rates[0] > 100.2 {
		t.Errorf("per-second rates = %v, want five with ~100/s first", rates)
	}
	if got := quietDecile(rates, false); got < 999 || got > 1001.1 {
		t.Errorf("quiet second's rate = %v, want ~1000/s", got)
	}
	// Weighted: each completion carries 8 ops.
	w := make([]int32, len(offsets))
	for i := range w {
		w[i] = 8
	}
	if got := quietDecile(secondRates(offsets, w, 5), false); got < 8*999 || got > 8*1001.1 {
		t.Errorf("weighted = %v, want ~8000/s", got)
	}
	// A second with a single completion has no rate; an empty window reads 0.
	if got := quietDecile(secondRates([]int64{5e8}, nil, 1), false); got != 0 {
		t.Errorf("single completion: rate %v, want 0", got)
	}
}

// The quiet decile is the nearest-rank tenth percentile from the better
// end: the second-best of twenty seconds, the best of ten or fewer.
func TestQuietDecile(t *testing.T) {
	var twenty []float64
	for i := 20; i >= 1; i-- {
		twenty = append(twenty, float64(i))
	}
	if got := quietDecile(twenty, true); got != 2 {
		t.Errorf("lower is better, 20 seconds: %v, want 2", got)
	}
	if got := quietDecile(twenty, false); got != 19 {
		t.Errorf("higher is better, 20 seconds: %v, want 19", got)
	}
	if twenty[0] != 20 {
		t.Error("quietDecile reordered its input")
	}
	if got := quietDecile([]float64{7, 3, 5}, true); got != 3 {
		t.Errorf("3 seconds: %v, want 3", got)
	}
}

// Three slow seconds in five put most samples past the quiet seconds'
// whole range; the quiet second's percentiles stay where the two quiet
// seconds have them.
func TestSecondPercentiles(t *testing.T) {
	var offsets []int64
	var lat []float64
	for sec := 0; sec < 5; sec++ {
		slow := 1000.0
		if sec == 1 || sec == 3 {
			slow = 0
		}
		for i := 0; i < 200; i++ {
			offsets = append(offsets, int64(sec)*1e9+int64(i)*1e6)
			lat = append(lat, slow+float64(i+1)) // 1..200 us, or 1001..1200
		}
	}
	offsets = append(offsets, 5e9+1, -1) // outside the window: dropped
	lat = append(lat, 1e6, 1e6)
	got := secondPercentiles(offsets, lat, 5, 50, 90)
	if len(got) != 2 || len(got[0]) != 5 || got[0][0] != 1100 || got[1][1] != 180 {
		t.Errorf("per-second percentiles = %v, want p50 1100 in second 0 and p90 180 in second 1", got)
	}
	if p50, p90 := quietDecile(got[0], true), quietDecile(got[1], true); p50 != 100 || p90 != 180 {
		t.Errorf("quiet second: p50 %v p90 %v, want 100 and 180", p50, p90)
	}
	if lat[0] != 1001 || lat[len(lat)-1] != 1e6 {
		t.Error("secondPercentiles reordered its input")
	}
	// Seconds with too few samples are skipped; with none left the whole
	// sample is used, as in a window shorter than one second.
	few := secondPercentiles([]int64{1, 2, 3, 2e9}, []float64{30, 10, 20, 40}, 1, 50, 90)
	if len(few[0]) != 1 || few[0][0] != 20 || few[1][0] != 40 {
		t.Errorf("sparse window: %v, want p50 20 and p90 40", few)
	}
}

// CPU per op of an interval is the CPU burnt between two readings over
// the ops that completed between them.
func TestSecondCPUPerOp(t *testing.T) {
	points := []cpuPoint{{0, 1e9}, {1e9, 1.5e9}, {2e9, 1.6e9}, {3e9, 1.9e9}, {3.5e9, 2e9}}
	// 1000 completions in the first interval, 100 in the second, none in
	// the third, 4 x 25 ops in the last; one before and one after all readings.
	var offsets []int64
	for i := 1; i <= 1000; i++ {
		offsets = append(offsets, int64(i)*1e6)
	}
	for i := 1; i <= 100; i++ {
		offsets = append(offsets, 1e9+int64(i)*1e6)
	}
	offsets = append(offsets, -5, 4e9)
	got := secondCPUPerOp(points, offsets, nil)
	if len(got) != 2 || got[0] != 500 || got[1] != 1000 {
		t.Errorf("per-interval CPU = %v, want [500 1000] us per op", got)
	}
	w := []int32{25, 25, 25, 25}
	got = secondCPUPerOp(points, []int64{3.1e9, 3.2e9, 3.3e9, 3.5e9}, w)
	if len(got) != 1 || got[0] != 1000 {
		t.Errorf("weighted last interval = %v, want [1000]", got)
	}
	if got := secondCPUPerOp(points[:1], offsets, nil); got != nil {
		t.Errorf("one reading: %v, want none", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance driver computes; expectations are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, true); !near(got, 0.10) {
		t.Errorf("latency up 10%%: %v", got)
	}
	if got := worseBy(100, 90, false); !near(got, 0.10) {
		t.Errorf("throughput down 10%%: %v", got)
	}
	if got := worseBy(100, 90, true); !near(got, -0.10) {
		t.Errorf("latency down is better: %v", got)
	}
}

// Open-loop latency counts from when the request was due: a generator
// that sent late charges the delay to the request, and says how late.
func TestDueLatency(t *testing.T) {
	lat, late := dueLatencyNs(1000, 1000, 1500)
	if lat != 500 || late != 0 {
		t.Errorf("on time: lat %d late %d", lat, late)
	}
	lat, late = dueLatencyNs(1000, 1400, 1900)
	if lat != 900 || late != 400 {
		t.Errorf("sent 400 late: lat %d late %d, want 900 400", lat, late)
	}
	// A request that goes out early (clock granularity) is not "negative late".
	if _, late = dueLatencyNs(1000, 990, 1200); late != 0 {
		t.Errorf("early send: late %d", late)
	}
}
