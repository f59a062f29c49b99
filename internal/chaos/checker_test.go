package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/leaseclient"
)

func violationsByKind(vs []Violation) map[string]int {
	m := map[string]int{}
	for _, v := range vs {
		m[v.Invariant]++
	}
	return m
}

// lease builds a leaseclient.Lease expiring after d.
func heldLease(name int, token uint64, d time.Duration) leaseclient.Lease {
	return leaseclient.Lease{Name: name, Token: token, ExpiresAt: time.Now().Add(d)}
}

// TestCheckerCleanLifecycle: acquire → observe → release → finish must
// produce zero violations.
func TestCheckerCleanLifecycle(t *testing.T) {
	c := NewChecker(time.Second)
	a, b := c.Client(0), c.Client(1)
	a.Acquired(heldLease(1, 10, time.Second))
	b.Acquired(heldLease(2, 11, time.Second))
	a.Observe(time.Now(), []leaseclient.Lease{heldLease(1, 10, time.Second)})
	a.ReleaseSent(1, 10)
	// Name 1 freed: client 1 may now take it with a higher token.
	b.Acquired(heldLease(1, 12, time.Second))
	b.ReleaseSent(1, 12)
	b.ReleaseSent(2, 11)
	a.Closed()
	b.Closed()
	if vs := c.Finish(time.Now(), nil); len(vs) != 0 {
		t.Fatalf("clean lifecycle produced violations: %v", vs)
	}
	st := c.Stats()
	if st.Acquired != 3 || st.Released != 3 || st.Lost != 0 || st.MaxToken != 12 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCheckerExclusiveHolding: a second client granted a name while the
// first still believes it holds it (expiry in the future, no release)
// is the core safety violation.
func TestCheckerExclusiveHolding(t *testing.T) {
	c := NewChecker(time.Second)
	a, b := c.Client(0), c.Client(1)
	a.Acquired(heldLease(7, 10, 10*time.Second))
	time.Sleep(60 * time.Millisecond)
	b.Acquired(heldLease(7, 11, 10*time.Second))
	// The overlap must OUTLIVE the epsilon slack before the run ends for
	// the checker to count it as observed.
	time.Sleep(120 * time.Millisecond)
	vs := c.Finish(time.Now(), nil)
	if violationsByKind(vs)["exclusive-holding"] != 1 {
		t.Fatalf("want 1 exclusive-holding violation, got %v", vs)
	}
}

// TestCheckerExclusivityRespectsExpiry: the same sequence is LEGAL when
// the first holder's expiry passed before the regrant — that is exactly
// how the system reissues names lost to a dead client.
func TestCheckerExclusivityRespectsExpiry(t *testing.T) {
	c := NewChecker(time.Second)
	a, b := c.Client(0), c.Client(1)
	a.Acquired(heldLease(7, 10, 50*time.Millisecond))
	time.Sleep(150 * time.Millisecond) // expiry long gone
	b.Acquired(heldLease(7, 11, time.Second))
	b.ReleaseSent(7, 11)
	vs := c.Finish(time.Now(), nil)
	for _, v := range vs {
		if v.Invariant == "exclusive-holding" {
			t.Fatalf("expired-then-regranted flagged as overlap: %v", v)
		}
	}
}

// TestCheckerFencingMonotonic: a regrant with a NON-increasing token is
// flagged at grant time.
func TestCheckerFencingMonotonic(t *testing.T) {
	c := NewChecker(time.Second)
	a, b := c.Client(0), c.Client(1)
	a.Acquired(heldLease(3, 20, 50*time.Millisecond))
	time.Sleep(120 * time.Millisecond)
	b.Acquired(heldLease(3, 20, time.Second)) // same token again
	vs := c.Finish(time.Now(), nil)
	if violationsByKind(vs)["fencing-monotonic"] != 1 {
		t.Fatalf("want 1 fencing-monotonic violation, got %v", vs)
	}
}

// TestCheckerLostIsFinal: observing a lease after its loss was reported
// is a violation.
func TestCheckerLostIsFinal(t *testing.T) {
	c := NewChecker(time.Second)
	c.Fault(time.Now().Add(-time.Minute), time.Now().Add(time.Minute), "test") // excuse the loss itself
	a := c.Client(0)
	a.Acquired(heldLease(5, 30, time.Second))
	a.LostFunc()(5, errors.New("expired"))
	a.Observe(time.Now(), []leaseclient.Lease{heldLease(5, 30, time.Second)})
	vs := c.Finish(time.Now(), nil)
	if violationsByKind(vs)["lost-is-final"] != 1 {
		t.Fatalf("want 1 lost-is-final violation, got %v", vs)
	}
}

// TestCheckerSilentLoss: a loss with no fault window in the preceding
// TTL is a violation; the same loss inside a fault window is excused.
func TestCheckerSilentLoss(t *testing.T) {
	c := NewChecker(time.Second)
	a := c.Client(0)
	a.Acquired(heldLease(1, 40, time.Second))
	a.LostFunc()(1, errors.New("expired"))
	vs := c.Finish(time.Now(), nil)
	if violationsByKind(vs)["no-silent-loss"] != 1 {
		t.Fatalf("want 1 no-silent-loss violation, got %v", vs)
	}

	c2 := NewChecker(time.Second)
	c2.Fault(time.Now().Add(-500*time.Millisecond), time.Now().Add(500*time.Millisecond), "partition")
	b := c2.Client(0)
	b.Acquired(heldLease(1, 40, time.Second))
	b.LostFunc()(1, errors.New("expired"))
	if vs := c2.Finish(time.Now(), nil); len(vs) != 0 {
		t.Fatalf("excused loss still flagged: %v", vs)
	}
}

// TestCheckerWedgedLease: an open claim whose expiry is far in the past
// at finish time means the session neither renewed nor noticed — the
// unbounded-call wedge.
func TestCheckerWedgedLease(t *testing.T) {
	c := NewChecker(100 * time.Millisecond)
	a := c.Client(0)
	a.Acquired(heldLease(9, 50, 100*time.Millisecond))
	time.Sleep(300 * time.Millisecond)
	vs := c.Finish(time.Now(), nil)
	if violationsByKind(vs)["no-wedged-leases"] != 1 {
		t.Fatalf("want 1 no-wedged-leases violation, got %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "name 9") {
		t.Fatalf("violation detail %q does not name the lease", vs[0].Detail)
	}
}

// TestCheckerCapacityBound: with a capacity timeline registered, a
// grant admitted while as many beliefs as the capacity were already
// open is a violation; grants that fit — or that land within the slack
// window of a shrink, where the old capacity still excuses them — are
// not.
func TestCheckerCapacityBound(t *testing.T) {
	c := NewChecker(time.Second)
	c.CapacityChanged(time.Now().Add(-10*time.Second), 2)
	a := c.Client(0)
	a.Acquired(heldLease(1, 10, time.Second)) // 0 held: fits
	a.Acquired(heldLease(2, 11, time.Second)) // 1 held: fits, cap reached
	a.Acquired(heldLease(3, 12, time.Second)) // 2 held: over the cap
	for n := 1; n <= 3; n++ {
		a.ReleaseSent(n, uint64(9+n))
	}
	vs := c.Finish(time.Now(), nil)
	if violationsByKind(vs)["capacity-bound"] != 1 {
		t.Fatalf("want 1 capacity-bound violation, got %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "name 3") {
		t.Fatalf("violation detail %q does not name the grant", vs[0].Detail)
	}

	// A grant in flight across a shrink is judged against the pre-shrink
	// capacity: the shrink landed within the slack window.
	c2 := NewChecker(time.Second)
	c2.CapacityChanged(time.Now().Add(-10*time.Second), 8)
	b := c2.Client(0)
	for n := 1; n <= 4; n++ {
		b.Acquired(heldLease(n, uint64(19+n), time.Second))
	}
	c2.CapacityChanged(time.Now().Add(-50*time.Millisecond), 2)
	b.Acquired(heldLease(5, 24, time.Second)) // 4 held > cap 2, but 8 was live within ±capEps
	for n := 1; n <= 5; n++ {
		b.ReleaseSent(n, uint64(19+n))
	}
	if vs := c2.Finish(time.Now(), nil); len(vs) != 0 {
		t.Fatalf("in-flight grant across a shrink flagged: %v", vs)
	}

	// The same grant long after the shrink has no excuse — but an
	// expired belief no longer counts against the cap.
	c3 := NewChecker(time.Second)
	c3.CapacityChanged(time.Now().Add(-10*time.Second), 2)
	d := c3.Client(0)
	d.Acquired(heldLease(1, 30, time.Second))
	d.Acquired(heldLease(2, 31, -time.Second)) // already expired: not held
	d.Acquired(heldLease(3, 32, time.Second))  // 1 unexpired held: fits
	d.Acquired(heldLease(4, 33, time.Second))  // 2 unexpired held: over
	if vs := violationsByKind(c3.Finish(time.Now(), nil)); vs["capacity-bound"] != 1 {
		t.Fatalf("want 1 capacity-bound violation, got %v", vs)
	}

	// Without a timeline the invariant never fires.
	c4 := NewChecker(time.Second)
	e := c4.Client(0)
	for n := 1; n <= 16; n++ {
		e.Acquired(heldLease(n, uint64(39+n), time.Second))
		e.ReleaseSent(n, uint64(39+n))
	}
	if vs := c4.Finish(time.Now(), nil); len(vs) != 0 {
		t.Fatalf("grants with no capacity timeline flagged: %v", vs)
	}
}

// TestCheckerReadoptionReopens: a release whose round trip failed gets
// re-adopted by the session; the driver's report must reopen the belief
// rather than flag it.
func TestCheckerReadoptionReopens(t *testing.T) {
	c := NewChecker(time.Second)
	a := c.Client(0)
	a.Acquired(heldLease(4, 60, time.Second))
	a.ReleaseSent(4, 60)
	a.readopted(4, 60)
	if st := c.Stats(); st.Released != 0 {
		t.Fatalf("re-adopted release still counted: %+v", st)
	}
	a.ReleaseSent(4, 60)
	a.Closed()
	if vs := c.Finish(time.Now(), nil); len(vs) != 0 {
		t.Fatalf("re-adoption flagged: %v", vs)
	}
}

// TestCheckerStaleSample: a sample read before a release or a loss took
// the lease out of the session is no evidence. Client 0's snapshot still
// holds (8, 33) and (9, 34) when it releases the first and is told the
// second is lost; delivered afterwards, the snapshot must neither reopen
// (8, 33), which would overlap client 1's later grant, nor flag (9, 34)
// as resurfaced.
func TestCheckerStaleSample(t *testing.T) {
	c := NewChecker(time.Second)
	c.Fault(time.Now().Add(-time.Minute), time.Now().Add(time.Minute), "test") // excuse the loss itself
	a, b := c.Client(0), c.Client(1)
	a.Acquired(heldLease(8, 33, 10*time.Second), heldLease(9, 34, 10*time.Second))
	at := time.Now().Add(-time.Millisecond) // stamped before the read below
	snapshot := []leaseclient.Lease{heldLease(8, 33, 10*time.Second), heldLease(9, 34, 10*time.Second)}
	a.ReleaseSent(8, 33)
	a.LostFunc()(9, errors.New("expired"))
	a.Observe(at, snapshot)
	time.Sleep(60 * time.Millisecond)
	b.Acquired(heldLease(8, 53, 10*time.Second))
	time.Sleep(120 * time.Millisecond)
	b.ReleaseSent(8, 53)
	a.Closed()
	if vs := c.Finish(time.Now(), nil); len(vs) != 0 {
		t.Fatalf("stale sample flagged: %v", vs)
	}
}
