package renaming

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestMoirAndersonConcurrentUnique(t *testing.T) {
	const k = 200
	nm, err := NewMoirAnderson(k)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]int, k)
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u, err := nm.Acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			names[g] = u
		}(g)
	}
	wg.Wait()
	seen := make(map[int]bool, k)
	for _, u := range names {
		if u < 0 || u >= nm.Namespace() {
			t.Fatalf("name %d outside [0,%d)", u, nm.Namespace())
		}
		if seen[u] {
			t.Fatalf("duplicate name %d", u)
		}
		seen[u] = true
	}
	if nm.RegisterSteps() < int64(k) {
		t.Fatalf("RegisterSteps = %d, want >= %d", nm.RegisterSteps(), k)
	}
}

func TestMoirAndersonSoloFastPath(t *testing.T) {
	nm, err := NewMoirAnderson(64)
	if err != nil {
		t.Fatal(err)
	}
	u, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Fatalf("solo caller got name %d, want 0", u)
	}
}

func TestMoirAndersonReleaseUnsupported(t *testing.T) {
	nm, err := NewMoirAnderson(4)
	if err != nil {
		t.Fatal(err)
	}
	u, err := nm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Release(u); !errors.Is(err, ErrOneShot) {
		t.Fatalf("Release = %v, want ErrOneShot", err)
	}
}

func TestMoirAndersonValidation(t *testing.T) {
	if _, err := NewMoirAnderson(0); err == nil {
		t.Error("NewMoirAnderson(0) accepted")
	}
}

func TestMoirAndersonNamespaceQuadratic(t *testing.T) {
	nm, err := NewMoirAnderson(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := nm.Namespace(); got != 5050 {
		t.Fatalf("Namespace = %d, want 5050", got)
	}
}
