package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"time"

	renaming "repro"
	"repro/lease"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls the benchmark makes into each layer and by two decorators it
// hands to lease.New (the namer and the observer). Nothing inside the
// program under test is instrumented; that is a later issue.

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spOpen spanKind = iota
	spAcquire
	spNamerAcquire
	spNamerRelease
	spObserve
	spLease
	spLeaseAcquire
	spLeaseRelease
	spService
	spDecode
	spEncode
	spJSONDecode
	spJSONEncode
	spCall
	spanKinds
)

var spanKindName = [spanKinds]string{
	"renaming.open", "renaming.acquire", "namer.acquire", "namer.release",
	"persist.observe", "lease.renew", "lease.acquire", "lease.release", "service", "binproto.decode", "binproto.encode",
	"wire.json_decode", "wire.json_encode", "leaseclient.call",
}

// span is one timed interval: what, when, caused by which span, and for
// which op of the replayed list.
type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span, -1 for a root
	op         uint32
	start, end int64 // ns since the recorder's origin
}

// recorder keeps one goroutine's spans in memory. Parentage comes from
// nesting: a span opened while another is open is its child, which is
// how the namer and observer decorators — called from inside
// lease.Manager — attach to the benchmark's own call span. A nil
// recorder records nothing, so the same replay code runs traced and
// untraced and the difference is the tracing overhead.
type recorder struct {
	origin time.Time
	spans  []span
	cur    int32
	op     uint32
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(kind spanKind) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: kind, parent: r.cur, op: r.op})
	r.cur = id
	r.spans[id].start = int64(time.Since(r.origin))
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.end = int64(time.Since(r.origin))
	r.cur = s.parent
}

// nextOp advances the op identifier shared by the spans of one request.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// clockCost is what recording one span adds: in is the part that lands
// inside the span's own interval (one clock read), out the part that
// lands in its parent's (the other clock read and the bookkeeping).
// calibrate measures both; netSelf subtracts them, so a parent with
// fifty child spans is not charged fifty clock reads as its own work.
type clockCost struct{ in, out float64 }

// calibrate records n empty spans back to back and reads the two costs
// off them: the span's own length is the in-span part, the gap to the
// next span the out-of-span part. Medians, so that the odd preemption
// among the n does not pass for clock cost.
func calibrate(n int) clockCost {
	r := newRecorder(n)
	for i := 0; i < n; i++ {
		r.end(r.begin(spCall))
	}
	in, out := make([]float64, n), make([]float64, n-1)
	for i, s := range r.spans {
		in[i] = float64(s.end - s.start)
		if i > 0 {
			out[i-1] = float64(s.start - r.spans[i-1].end)
		}
	}
	return clockCost{in: median(in), out: median(out)}
}

// netSelf returns every span's self time: its duration minus its
// children's durations — the time the layer itself was busy rather than
// waiting on the layer below — with the recording cost c taken out (one
// in-span clock read of its own, the out-of-span remainder of each
// direct child).
func netSelf(spans []span, c clockCost) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		d := float64(s.end - s.start)
		self[i] += d - c.in
		if s.parent >= 0 {
			self[s.parent] -= d + c.out
		}
	}
	return self
}

// kindTotals is the per-kind aggregate of a span set.
type kindTotals struct {
	count  int64
	selfNs float64
}

// selfTimes sums net self time by kind.
func selfTimes(spans []span, c clockCost) [spanKinds]kindTotals {
	var out [spanKinds]kindTotals
	for i, self := range netSelf(spans, c) {
		k := &out[spans[i].kind]
		k.count++
		k.selfNs += self
	}
	return out
}

// opMedians is selfTimes per request, robustly: the net self time of
// each kind is summed within every op (spans of one op are contiguous),
// and the median op is reported for each kind. A request that a
// compaction, a collection or a neighbour landed on does not move it,
// where it would a sum over the whole replay.
func opMedians(spans []span, c clockCost) [spanKinds]float64 {
	self := netSelf(spans, c)
	var perOp [spanKinds][]float64
	for i := 0; i < len(spans); {
		var acc [spanKinds]float64
		var seen [spanKinds]bool
		for op := spans[i].op; i < len(spans) && spans[i].op == op; i++ {
			acc[spans[i].kind] += self[i]
			seen[spans[i].kind] = true
		}
		for k := range acc {
			if seen[k] {
				perOp[k] = append(perOp[k], acc[k])
			}
		}
	}
	var out [spanKinds]float64
	for k := range out {
		if len(perOp[k]) > 0 {
			out[k] = median(perOp[k])
		}
	}
	return out
}

// stackSelf is self time by stacking, for layers that hold the next one
// by concrete type so no decorator fits between them: the same op list
// is replayed at increasing depth (lease, service, codec+service,
// loopback) and each depth's own cost is its per-op total minus the
// depth below.
func stackSelf(depthTotals []float64) []float64 {
	out := make([]float64, len(depthTotals))
	prev := 0.0
	for i, t := range depthTotals {
		out[i] = t - prev
		prev = t
	}
	return out
}

// writeSpans dumps spans as CSV: kind,op,parent,start_ns,end_ns. parent
// is a row index within the same recorder, -1 for a root.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanKindName[s.kind], s.op, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedNamer is the timing decorator around the renaming.Namer handed
// to lease.New: every acquisition and hand-back the lease layer makes
// becomes a child span of whatever benchmark call is open.
type tracedNamer struct {
	renaming.Namer
	rec *recorder
}

func (n *tracedNamer) Acquire(ctx context.Context) (int, error) {
	id := n.rec.begin(spNamerAcquire)
	name, err := n.Namer.Acquire(ctx)
	n.rec.end(id)
	return name, err
}

func (n *tracedNamer) AcquireN(ctx context.Context, k int) ([]int, error) {
	id := n.rec.begin(spNamerAcquire)
	names, err := n.Namer.AcquireN(ctx, k)
	n.rec.end(id)
	return names, err
}

func (n *tracedNamer) Release(name int) error {
	id := n.rec.begin(spNamerRelease)
	err := n.Namer.Release(name)
	n.rec.end(id)
	return err
}

// Adopt forwards the restart-recovery extension lease.Restore needs.
func (n *tracedNamer) Adopt(name int) error {
	return n.Namer.(lease.Adopter).Adopt(name)
}

// tracedObserver is the timing decorator around the lease.Observer
// (persist.Store): one span per journal record.
type tracedObserver struct {
	lease.Observer
	rec *recorder
}

func (o *tracedObserver) ObserveAcquire(l lease.Lease) {
	id := o.rec.begin(spObserve)
	o.Observer.ObserveAcquire(l)
	o.rec.end(id)
}

func (o *tracedObserver) ObserveRenew(name int, token uint64, expiresAt time.Time) {
	id := o.rec.begin(spObserve)
	o.Observer.ObserveRenew(name, token, expiresAt)
	o.rec.end(id)
}

func (o *tracedObserver) ObserveRelease(name int, token uint64) {
	id := o.rec.begin(spObserve)
	o.Observer.ObserveRelease(name, token)
	o.rec.end(id)
}
