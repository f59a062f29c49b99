package renaming

import (
	"context"
	"errors"
	"testing"
)

// TestAdopt pins the restart-recovery extension: Adopt seizes a specific
// name as if acquired, so a lease service replaying durable state can
// re-occupy exactly the names that had holders before fielding fresh
// acquisitions.
func TestAdopt(t *testing.T) {
	nm, err := NewLevelArray(4)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 0 // level-0 slot: reachable by random probes
	if err := nm.Adopt(victim); err != nil {
		t.Fatal(err)
	}
	// Adopting a held name must fail with the typed sentinel.
	if err := nm.Adopt(victim); !errors.Is(err, ErrNameHeld) {
		t.Fatalf("double Adopt = %v, want ErrNameHeld", err)
	}
	// No acquisition may be granted the adopted name.
	seen := map[int]bool{}
	for i := 0; i < nm.Namespace()-1; i++ {
		u, err := nm.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if u == victim {
			t.Fatalf("Acquire handed out adopted name %d", victim)
		}
		if seen[u] {
			t.Fatalf("duplicate name %d", u)
		}
		seen[u] = true
	}
	// The namespace is now full: the adopted slot counts as held.
	if _, err := nm.Acquire(context.Background()); !errors.Is(err, ErrNamespaceExhausted) {
		t.Fatalf("Acquire over full namespace = %v, want ErrNamespaceExhausted", err)
	}
	// An adopted name releases like an acquired one and becomes
	// grantable again.
	if err := nm.Release(victim); err != nil {
		t.Fatal(err)
	}
	u, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u != victim {
		t.Fatalf("after releasing the only free name, Acquire returned %d, want %d", u, victim)
	}
}

// TestAdoptRejectsOutOfRange pins the bounds check's error taxonomy.
func TestAdoptRejectsOutOfRange(t *testing.T) {
	nm, err := NewLevelArray(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []int{-1, nm.Namespace(), nm.Namespace() + 100} {
		if err := nm.Adopt(name); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("Adopt(%d) = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestAdoptDoesNotCountProbes pins that adoption is recovery
// bookkeeping, invisible to WithCounting's probe statistics.
func TestAdoptDoesNotCountProbes(t *testing.T) {
	nm, err := NewLevelArray(8, WithCounting())
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Adopt(2); err != nil {
		t.Fatal(err)
	}
	if ops, wins, ok := nm.Probes(); !ok || ops != 0 || wins != 0 {
		t.Fatalf("after Adopt: Probes() = %d ops %d wins ok=%v, want 0, 0, true", ops, wins, ok)
	}
}
