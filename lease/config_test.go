package lease

import (
	"testing"
	"time"

	renaming "repro"
)

// TestDefaultTTLNeverExceedsMaxTTL is the regression test for the
// applyDefaults hole: with TTL > MaxTTL configured, a default-duration
// acquire (ttl <= 0 resolves to cfg.TTL) used to be granted the full TTL
// while explicit requests were clamped at MaxTTL — the configured
// ceiling was quietly breakable by NOT asking for anything. The config
// now normalizes MaxTTL up to TTL, so the default lease class is always
// grantable and the ceiling binds uniformly.
func TestDefaultTTLNeverExceedsMaxTTL(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, err := New(nm, Config{
		TTL:           60 * time.Second,
		MaxTTL:        30 * time.Second, // below TTL: the misconfiguration
		SweepInterval: -1,
		Now:           clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	now := clk.Now()
	byDefault, err := acquire1(m, "default", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := acquire1(m, "explicit", 45*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	over, err := acquire1(m, "over", 2*time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}

	// MaxTTL normalizes up to TTL (60s): the default acquire gets 60s...
	if got := byDefault.ExpiresAt.Sub(now); got != 60*time.Second {
		t.Fatalf("default acquire granted %v, want 60s", got)
	}
	// ...explicit requests under the normalized ceiling pass through...
	if got := explicit.ExpiresAt.Sub(now); got != 45*time.Second {
		t.Fatalf("45s request granted %v, want 45s (ceiling is now max(TTL, MaxTTL))", got)
	}
	// ...and oversized requests clamp at the normalized ceiling — never
	// above what the default class gets, never below it either.
	if got := over.ExpiresAt.Sub(now); got != 60*time.Second {
		t.Fatalf("2h request granted %v, want the 60s normalized ceiling", got)
	}

	// Renewals follow the same rule: a default renewal must not outlive
	// the ceiling the explicit path enforces.
	ren, err := renew1(m, byDefault.Name, byDefault.Token, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ren.ExpiresAt.Sub(clk.Now()); got != 60*time.Second {
		t.Fatalf("default renewal granted %v, want 60s", got)
	}
}

// TestMaxTTLAboveTTLUntouched pins that a sane configuration is left
// alone by the normalization.
func TestMaxTTLAboveTTLUntouched(t *testing.T) {
	cfg := Config{TTL: 10 * time.Second, MaxTTL: 25 * time.Second}
	cfg.applyDefaults()
	if cfg.MaxTTL != 25*time.Second {
		t.Fatalf("MaxTTL rewritten to %v, want 25s untouched", cfg.MaxTTL)
	}
	cfg = Config{TTL: 10 * time.Second}
	cfg.applyDefaults()
	if cfg.MaxTTL != 100*time.Second {
		t.Fatalf("defaulted MaxTTL = %v, want 10×TTL", cfg.MaxTTL)
	}
}
