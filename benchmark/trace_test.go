package main

import (
	"context"
	"testing"

	renaming "repro"
)

// A parent's self time is its duration minus its children's, and the
// recording cost comes out: 10 ns inside each span, 30 ns outside it,
// charged to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spService, parent: -1, start: 0, end: 1000},           // 0
		{kind: spNamerAcquire, parent: 0, start: 100, end: 300},      // 1: 200
		{kind: spObserve, parent: 0, start: 400, end: 450},           // 2: 50
		{kind: spObserve, parent: 0, start: 500, end: 570},           // 3: 70
		{kind: spService, parent: -1, op: 1, start: 2000, end: 2100}, // 4: a leaf service call, next op
	}
	raw := selfTimes(spans, clockCost{})
	if k := raw[spService]; k.count != 2 || k.selfNs != 1100-320 {
		t.Errorf("service totals %+v", k)
	}
	if k := raw[spObserve]; k.count != 2 || k.selfNs != 120 {
		t.Errorf("observe totals %+v", k)
	}
	if k := raw[spNamerAcquire]; k.count != 1 || k.selfNs != 200 {
		t.Errorf("namer totals %+v", k)
	}
	// The two service spans lose 2x10 of their own and 3x30 for the
	// children of the first; each leaf loses its own 10.
	net := selfTimes(spans, clockCost{in: 10, out: 30})
	if got := net[spService].selfNs; got != 780-20-90 {
		t.Errorf("service net self = %v, want 670", got)
	}
	if got := net[spObserve].selfNs; got != 120-20 {
		t.Errorf("observe net self = %v, want 100", got)
	}
}

// opMedians sums a kind within each op and reports the median op, so one
// op that a stall landed on moves nothing.
func TestOpMedians(t *testing.T) {
	var spans []span
	at := int64(0)
	for op := uint32(0); op < 5; op++ {
		svc := int64(100)
		if op == 2 {
			svc = 100_000 // the stalled request
		}
		root := int32(len(spans))
		spans = append(spans,
			span{kind: spService, parent: -1, op: op, start: at, end: at + svc + 40},
			span{kind: spObserve, parent: root, op: op, start: at + 10, end: at + 30},
			span{kind: spObserve, parent: root, op: op, start: at + 50, end: at + 70})
		at += svc + 1000
	}
	got := opMedians(spans, clockCost{})
	if got[spService] != 100 || got[spObserve] != 40 {
		t.Errorf("median op: service %v observe %v, want 100 40", got[spService], got[spObserve])
	}
	if got[spEncode] != 0 {
		t.Errorf("kind with no spans reads %v", got[spEncode])
	}
}

func TestStackSelf(t *testing.T) {
	// lease 260, service 275, codec 300, loopback 680 per op.
	got := stackSelf([]float64{260, 275, 300, 680})
	want := []float64{260, 15, 25, 380}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("stackSelf = %v, want %v", got, want)
		}
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if !near(sum, 680) {
		t.Errorf("self times add to %v, want the deepest total 680", sum)
	}
}

// fakeNamer hands out 0, 1, 2, ... so the decorator test needs no
// algorithm.
type fakeNamer struct {
	renaming.Namer
	next int
}

func (f *fakeNamer) AcquireN(_ context.Context, k int) ([]int, error) {
	out := make([]int, k)
	for i := range out {
		out[i] = f.next
		f.next++
	}
	return out, nil
}

func (f *fakeNamer) Release(int) error { return nil }

// The decorator's spans nest under whatever benchmark call is open, and
// a nil recorder records nothing.
func TestRecorderNesting(t *testing.T) {
	rec := newRecorder(8)
	nm := &tracedNamer{Namer: &fakeNamer{}, rec: rec}
	call := rec.begin(spLeaseAcquire)
	nm.AcquireN(context.Background(), 4)
	rec.end(call)
	rec.nextOp()
	call = rec.begin(spLeaseRelease)
	nm.Release(0)
	nm.Release(1)
	rec.end(call)

	if len(rec.spans) != 5 {
		t.Fatalf("%d spans, want 5", len(rec.spans))
	}
	wantParent := []int32{-1, 0, -1, 2, 2}
	wantKind := []spanKind{spLeaseAcquire, spNamerAcquire, spLeaseRelease, spNamerRelease, spNamerRelease}
	wantOp := []uint32{0, 0, 1, 1, 1}
	for i, s := range rec.spans {
		if s.parent != wantParent[i] || s.kind != wantKind[i] || s.op != wantOp[i] {
			t.Errorf("span %d = kind %s parent %d op %d", i, spanKindName[s.kind], s.parent, s.op)
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if rec.cur != -1 {
		t.Errorf("recorder left span %d open", rec.cur)
	}

	nm.rec = nil
	if _, err := nm.AcquireN(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	var none *recorder
	none.end(none.begin(spCall))
	none.nextOp()
	if len(rec.spans) != 5 {
		t.Error("untraced calls recorded spans")
	}
}

func TestCalibrateIsSane(t *testing.T) {
	c := calibrate(10_000)
	if c.in <= 0 || c.out < 0 || c.in > 5_000 || c.out > 5_000 {
		t.Errorf("clock cost in=%v out=%v ns: want small positive", c.in, c.out)
	}
}
