package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log₂-bucketed latency histogram: bucket i
// counts durations in [2^(i-1), 2^i) nanoseconds, so 64 counters cover
// every possible Duration with ≤ 2× quantile error — plenty for the
// per-op service latencies this repo monitors. Observe is two atomic
// adds plus one atomic bucket increment, zero allocations.
//
// This is the one histogram implementation in the repository: the
// renamed server's per-op latencies and the leaseclient session's
// heartbeat latency both use it, so their numbers are computed — and
// rounded — identically.
//
// In the Prometheus exposition a Histogram renders with cumulative
// buckets in seconds: le="2^i ns" for i in [minBucketExp, maxBucketExp]
// (≈1µs to ≈69s), then le="+Inf", plus _sum (seconds) and _count.
// Observations below the first bound fold into its bucket (cumulative
// semantics make that exact); observations above the last appear only
// in +Inf.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [65]atomic.Int64
}

// Exposition bucket range: 2^10 ns = 1.024µs up to 2^36 ns ≈ 68.7s.
// Below and above, per-bucket resolution has no monitoring value for a
// network service, and 27 bounds keeps scrape output compact.
const (
	minBucketExp = 10
	maxBucketExp = 36
)

// NewHistogram returns an unregistered histogram; use
// Registry.Histogram for one that shows up in the exposition.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations clamp to zero.
//
//renamed:noalloc
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of
// the observed durations: the top of the bucket the rank lands in.
// Counters are read without a global snapshot, so concurrent observers
// can skew a quantile by the in-flight handful — fine for monitoring.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	bound := func(i int) time.Duration {
		if i == 0 {
			return 0
		}
		if i >= 63 {
			return time.Duration(math.MaxInt64)
		}
		return time.Duration(int64(1) << i)
	}
	var seen int64
	last := 0 // highest populated bucket, the clamp when rank is unreachable
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n > 0 {
			last = i
		}
		seen += n
		if seen >= rank {
			return bound(i)
		}
	}
	// An in-flight Observe incremented count but not yet its bucket, so
	// the buckets sum short of rank; clamp to the highest seen latency
	// rather than reporting a 292-year phantom.
	return bound(last)
}

// Summary is a scalar snapshot of a histogram, in durations.
type Summary struct {
	Count              int64
	Mean               time.Duration
	P50, P90, P95, P99 time.Duration
}

// Summary snapshots the histogram's count, mean and standard quantiles.
func (h *Histogram) Summary() Summary {
	s := Summary{Count: h.count.Load()}
	if s.Count > 0 {
		s.Mean = time.Duration(h.sum.Load() / s.Count)
	}
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	return s
}

// collect renders the cumulative Prometheus bucket series. Buckets are
// loaded once into a local snapshot so the cumulative sums are
// internally consistent even while writers race the scrape (count can
// still lead the +Inf bucket by the in-flight handful; Prometheus
// tolerates that between scrapes).
func (h *Histogram) collect(w *expositionWriter, name, labels string) {
	var snap [65]int64
	for i := range h.buckets {
		snap[i] = h.buckets[i].Load()
	}
	var cum int64
	i := 0
	for exp := minBucketExp; exp <= maxBucketExp; exp++ {
		for ; i <= exp; i++ {
			cum += snap[i]
		}
		// le bound in seconds: 2^exp nanoseconds.
		w.bucket(name, labels, float64(int64(1)<<exp)/1e9, cum)
	}
	for ; i < len(snap); i++ {
		cum += snap[i]
	}
	w.bucketInf(name, labels, cum)
	w.sample(name+"_sum", labels, float64(h.sum.Load())/1e9)
	w.sample(name+"_count", labels, float64(cum))
}

// Histogram registers a latency histogram. By Prometheus convention the
// name should end in _seconds (the exposition is in seconds).
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, kindHistogram, nil)
	return f.addChild(nil, func() collector { return NewHistogram() }).(*Histogram)
}

// HistogramVec is a family of histograms distinguished by label values
// (one per operation, say). Handles are resolved once with With.
type HistogramVec struct {
	fam *family
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labelNames ...string) *HistogramVec {
	if len(labelNames) == 0 {
		panic("telemetry: HistogramVec " + name + " needs at least one label")
	}
	return &HistogramVec{fam: r.register(name, help, kindHistogram, labelNames)}
}

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.addChild(labelValues, func() collector { return NewHistogram() }).(*Histogram)
}
