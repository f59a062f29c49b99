package leaseclient

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestBackoffCeiling drives deterministic heartbeat failures against a
// dead target and pins the retry backoff schedule: 50ms doubling per
// failed round, clamped at maxBackoff (2s). The pre-fix guard checked
// the ceiling BEFORE doubling, so the sequence overshot to 3.2s and the
// effective ceiling was ~4s — during a server restart that is over a
// second of extra silence per heartbeat while the lease TTL burns.
func TestBackoffCeiling(t *testing.T) {
	// A target that is guaranteed dead: bind a port, then close it.
	srv := httptest.NewServer(http.NotFoundHandler())
	target := srv.URL
	srv.Close()

	s, err := NewSession(Config{
		Target:      target,
		Owner:       "backoff-test",
		TTL:         time.Second,
		CallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Hand the session a lease directly: the heartbeat loop is idle (no
	// wake was kicked), so the test owns every heartbeat() call.
	s.mu.Lock()
	s.leases[3] = Lease{Name: 3, Token: 7, ExpiresAt: time.Now().Add(time.Hour)}
	s.mu.Unlock()

	want := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // 3200ms pre-fix
		2 * time.Second, // stays pinned at the ceiling
		2 * time.Second,
	}
	for i, w := range want {
		s.heartbeat()
		s.mu.Lock()
		got := s.backoff
		s.mu.Unlock()
		if got != w {
			t.Fatalf("after %d failed rounds backoff = %v, want %v", i+1, got, w)
		}
		if got > maxBackoff {
			t.Fatalf("backoff %v exceeded the %v ceiling", got, maxBackoff)
		}
	}
	if got := s.Stats().Retries; got != int64(len(want)) {
		t.Fatalf("Retries = %d, want %d", got, len(want))
	}
	// The lease was never dropped: transport failures are not losses.
	if got := len(s.Leases()); got != 1 {
		t.Fatalf("session dropped %d leases on transport failure", 1-got)
	}
}
