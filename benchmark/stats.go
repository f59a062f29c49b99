package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. Nearest rank never interpolates, so every reported
// latency is a latency that was actually observed. sorted must be
// ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vs (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of vs after dropping the share trim of the
// values at either end: like the median it ignores a tail, but it moves
// smoothly where a median jumps between the modes of a bimodal sample.
func trimmedMean(vs []float64, trim float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	drop := int(trim * float64(len(s)))
	s = s[drop : len(s)-drop]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// The quiet decile. This benchmark runs on a few virtual CPUs of a
// shared host, and what the neighbours do to it is one-sided: they only
// ever take time away, for seconds or for minutes at a stretch. A window's
// whole sample, or its median second, therefore reads 10-30% apart between
// two runs of the same code (README.md has the tables). Every rate,
// latency and CPU figure is instead taken second by second of the
// measured window, and the second at the tenth percentile from the good
// end is reported — with a 20 s window, the second-best second: the
// program's own cost with as little of the host in it as the window
// offers, and still a second that was observed, not a minimum that one
// lucky second sets. A change that makes every operation dearer moves
// every second and so moves this; what touches fewer than nine seconds in
// ten — a rare stall, a compaction every other second — does not, and
// shows in the whole-window rows window.* and client.op_p99_us instead.
const quietPercentile = 10

// quietDecile returns the value at the tenth percentile (nearest rank)
// counted from the better end of perSecond, without reordering it.
func quietDecile(perSecond []float64, lowerIsBetter bool) float64 {
	s := append([]float64(nil), perSecond...)
	sort.Float64s(s)
	if !lowerIsBetter {
		slices.Reverse(s)
	}
	return percentile(s, quietPercentile)
}

// secondRates buckets completions into the whole seconds of the measured
// window and returns every second's completion rate: the ops completed
// after the second's first completion divided by the time from that
// first completion to its last — a measured rate with all its digits,
// not a count that an open loop pegs to the same integer on every run.
// offsetsNs are completion instants relative to the window start, in
// order per sender, and weights the ops each completion carries (nil = 1
// each); completions at or past windowS whole seconds are outside the
// window and dropped. A second without two completions has rate 0.
func secondRates(offsetsNs []int64, weights []int32, windowS int) []float64 {
	type second struct {
		ops, firstOps int64
		first, last   int64
		seen          bool
	}
	buckets := make([]second, windowS)
	for i, off := range offsetsNs {
		sec := off / 1e9
		if off < 0 || sec >= int64(windowS) {
			continue
		}
		w := int64(1)
		if weights != nil {
			w = int64(weights[i])
		}
		b := &buckets[sec]
		if !b.seen || off < b.first {
			b.first, b.firstOps = off, w
		}
		if !b.seen || off > b.last {
			b.last = off
		}
		b.seen = true
		b.ops += w
	}
	rates := make([]float64, windowS)
	for i, b := range buckets {
		if b.last > b.first {
			rates[i] = float64(b.ops-b.firstOps) / float64(b.last-b.first) * 1e9
		}
	}
	return rates
}

// secondPercentiles buckets the latency samples into the whole seconds
// of the measured window by completion instant and returns, for each p,
// every second's nearest-rank percentile over that second's samples.
// Seconds with fewer than minSecondSamples samples are skipped; with no
// second left (a window shorter than one second) the one "second" is the
// whole sample. offsetsNs and latUs run in parallel and are not
// reordered; completions outside the window are dropped.
func secondPercentiles(offsetsNs []int64, latUs []float64, windowS int, ps ...float64) [][]float64 {
	buckets := make([][]float64, windowS)
	for i, off := range offsetsNs {
		if sec := off / 1e9; off >= 0 && sec < int64(windowS) {
			buckets[sec] = append(buckets[sec], latUs[i])
		}
	}
	if !slices.ContainsFunc(buckets, func(b []float64) bool { return len(b) >= minSecondSamples }) {
		buckets = [][]float64{append([]float64(nil), latUs...)}
	}
	perSecond := make([][]float64, len(ps))
	for _, b := range buckets {
		if len(b) < minSecondSamples && len(buckets) > 1 {
			continue
		}
		sort.Float64s(b)
		for k, p := range ps {
			perSecond[k] = append(perSecond[k], percentile(b, p))
		}
	}
	return perSecond
}

// minSecondSamples is the fewest samples a second needs for its p90 to
// have ten samples beyond it.
const minSecondSamples = 100

// cpuPoint is one reading of a process's cumulative CPU time, atNs after
// the window began.
type cpuPoint struct {
	atNs  int64
	cpuNs int64
}

// secondCPUPerOp turns readings taken about a second apart into CPU
// microseconds per op of every interval between two neighbouring
// readings: the CPU the process burnt in the interval over the ops that
// completed in it. Intervals without a completion are skipped.
func secondCPUPerOp(points []cpuPoint, offsetsNs []int64, weights []int32) []float64 {
	if len(points) < 2 {
		return nil
	}
	ops := make([]int64, len(points)-1)
	for i, off := range offsetsNs {
		// The interval (points[k].atNs, points[k+1].atNs] that off falls in.
		k := sort.Search(len(points), func(j int) bool { return points[j].atNs >= off }) - 1
		if k < 0 || k >= len(ops) {
			continue
		}
		w := int64(1)
		if weights != nil {
			w = int64(weights[i])
		}
		ops[k] += w
	}
	var out []float64
	for k, n := range ops {
		if n > 0 {
			out = append(out, float64(points[k+1].cpuNs-points[k].cpuNs)/1e3/float64(n))
		}
	}
	return out
}

// quartiles returns Q1, the median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), because
// that is the arithmetic the acceptance driver applies to ten runs.
// It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every regression bound is derived from.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worseBy is how much worse (as a share of base) got is than base, given
// the metric's direction; negative means better.
func worseBy(base, got float64, lowerIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if lowerIsBetter {
		return (got - base) / math.Abs(base)
	}
	return (base - got) / math.Abs(base)
}

// dueLatencyNs is the open-loop latency rule: a request is timed from the
// instant it was DUE, not from when the generator got round to sending
// it, so a stall that delays later requests is charged to them. late is
// how far behind schedule the generator itself ran.
func dueLatencyNs(dueNs, sentNs, doneNs int64) (latency, late int64) {
	late = sentNs - dueNs
	if late < 0 {
		late = 0
	}
	return doneNs - dueNs, late
}

// toUs converts nanosecond samples to microseconds.
func toUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
