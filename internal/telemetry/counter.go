package telemetry

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
)

// counterStripe is one cache-line-padded shard of a Counter. The
// padding keeps two stripes from sharing a line, so increments from
// different cores don't bounce ownership of each other's counters.
type counterStripe struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing counter sharded into
// per-core stripes. Add and Inc are zero-allocation and wait-free:
// each call picks a stripe with a thread-local random hint (uniform
// over stripes, so contention on any one line drops by the stripe
// factor in expectation) and does a single atomic add. Value folds
// the stripes at read time — scrape-time cost, not hot-path cost.
type Counter struct {
	stripes []counterStripe
	mask    uint64
}

// NewCounter returns an unregistered striped counter; use
// Registry.Counter for one that shows up in the exposition.
// The stripe count is nextPow2(GOMAXPROCS), capped at 64.
func NewCounter() *Counter {
	n := nextPow2(runtime.GOMAXPROCS(0))
	if n > 64 {
		n = 64
	}
	return &Counter{stripes: make([]counterStripe, n), mask: uint64(n - 1)}
}

// Add adds n to the counter. Negative deltas are a programmer error
// (counters are monotonic) but are not checked on the hot path.
//
//renamed:noalloc
func (c *Counter) Add(n int64) {
	// rand.Uint64 reads the per-thread generator — no lock, no alloc,
	// ~2ns — so concurrent writers spread across stripes without any
	// goroutine-identity machinery.
	c.stripes[rand.Uint64()&c.mask].n.Add(n)
}

// Inc adds 1.
//
//renamed:noalloc
func (c *Counter) Inc() { c.Add(1) }

// Value folds the stripes into the counter's current value.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].n.Load()
	}
	return sum
}

func (c *Counter) collect(w *expositionWriter, name, labels string) {
	w.sample(name, labels, float64(c.Value()))
}

// Counter registers a striped counter. By convention (and enforced at
// registration) the name ends in _total.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return f.addChild(nil, func() collector { return NewCounter() }).(*Counter)
}

// funcCollector renders a single sample from a closure at scrape time.
type funcCollector struct {
	f func() float64
}

func (fc funcCollector) collect(w *expositionWriter, name, labels string) {
	w.sample(name, labels, fc.f())
}

// CounterFunc registers a counter whose value is read from f at scrape
// time — for monotonic totals that already live elsewhere (the lease
// manager's atomic operation counters, the persist store's append and
// fsync counts). f must be safe for concurrent use and monotonic.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	fam := r.register(name, help, kindCounter, nil)
	fam.addChild(nil, func() collector {
		return funcCollector{f: func() float64 { return float64(f()) }}
	})
}

// GaugeFunc registers a gauge whose value is read from f at scrape
// time. f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	fam := r.register(name, help, kindGauge, nil)
	fam.addChild(nil, func() collector { return funcCollector{f: f} })
}

// CounterVec is a family of counters distinguished by label values —
// the per-item verdict codes, per-operation request counts. Handles
// are resolved once with With at wiring time; the hot path holds the
// *Counter and never touches the vec again.
type CounterVec struct {
	fam *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("telemetry: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{fam: r.register(name, help, kindCounter, labelNames)}
}

// With returns the counter for the given label values, creating it on
// first use. Panics if the value count does not match the label names.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.addChild(labelValues, func() collector { return NewCounter() }).(*Counter)
}
