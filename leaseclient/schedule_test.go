package leaseclient

import (
	"math/rand/v2"
	"testing"
	"time"
)

// scheduleSession builds a Session shell (no goroutines, no transport)
// with an injected clock and seeded jitter source, holding one lease
// per given remaining TTL. nextWait is the whole heartbeat schedule —
// everything else in the loop is plumbing — so driving it directly
// pins the schedule without a live server.
func scheduleSession(t *testing.T, seed uint64, now time.Time, remaining ...time.Duration) *Session {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	cfg := Config{
		Target: "http://unused",
		Now:    func() time.Time { return now },
		Rand:   rng.Float64,
	}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	s := &Session{cfg: cfg, leases: map[int]Lease{}}
	for i, r := range remaining {
		s.leases[i] = Lease{Name: i, Token: uint64(i + 1), ExpiresAt: now.Add(r)}
	}
	return s
}

// TestHeartbeatScheduleDeterministic: with an injected clock and seeded
// RNG, the renewal schedule is a pure function of the seed — the
// property every chaos scenario's reproducibility rests on.
func TestHeartbeatScheduleDeterministic(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	const steps = 32
	run := func(seed uint64) []time.Duration {
		s := scheduleSession(t, seed, now, 3*time.Second, 9*time.Second)
		waits := make([]time.Duration, steps)
		for i := range waits {
			w, idle := s.nextWait()
			if idle {
				t.Fatal("nextWait reported idle with leases held")
			}
			waits[i] = w
		}
		return waits
	}

	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: same seed diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == steps {
		t.Fatal("different seeds produced identical schedules; jitter is not drawing from the injected RNG")
	}

	// The base interval is heartbeatFraction (1/3) of the soonest
	// remaining TTL (3s → 1s), jittered by ±10%: every wait must stay
	// inside [0.9s, 1.1s]. A wait outside the band means the schedule
	// stopped honoring the injected clock.
	for i, w := range a {
		if w < 900*time.Millisecond || w > 1100*time.Millisecond {
			t.Fatalf("step %d: wait %v outside the jitter band [900ms, 1100ms]", i, w)
		}
	}
}

// TestScheduleUsesInjectedClock: skewing only the clock must shift the
// perceived remaining TTL — the mechanism the chaos skew scenario
// injects through. A client whose clock runs 2s ahead sees a 3s lease
// as having 1s left and heartbeats three times as fast.
func TestScheduleUsesInjectedClock(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	honest := scheduleSession(t, 7, base, 3*time.Second)
	ahead := scheduleSession(t, 7, base.Add(2*time.Second))
	// Same server-stamped expiry as honest's lease; only the clock moved.
	ahead.leases[0] = Lease{Name: 0, Token: 1, ExpiresAt: base.Add(3 * time.Second)}
	// Same seed: the jitter draw is identical, so the ratio isolates the
	// clock's effect exactly.
	hw, _ := honest.nextWait()
	aw, _ := ahead.nextWait()
	if hw <= aw*2 {
		t.Fatalf("clock skew did not shrink the schedule: honest %v vs 2s-ahead %v", hw, aw)
	}
}
