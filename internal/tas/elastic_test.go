package tas

import (
	"sync"
	"testing"
)

func TestElasticBasics(t *testing.T) {
	e := NewElastic(10)
	if e.Len() != 10 {
		t.Fatalf("Len() = %d, want 10", e.Len())
	}
	if !e.TAS(3) {
		t.Fatal("first TAS(3) lost")
	}
	if e.TAS(3) {
		t.Fatal("second TAS(3) won")
	}
	if !e.IsSet(3) || e.IsSet(4) {
		t.Fatal("IsSet mismatch")
	}
	if !e.TryReset(3) || e.TryReset(3) {
		t.Fatal("TryReset must win exactly once")
	}
	if e.IsSet(3) {
		t.Fatal("TryReset left the bit set")
	}
}

func TestElasticGrowPreservesBits(t *testing.T) {
	e := NewElastic(100)
	for i := 0; i < 100; i += 7 {
		e.TAS(i)
	}
	// Grow across multiple chunk boundaries.
	e.Grow(3 * elasticChunkSize)
	if e.Len() != 3*elasticChunkSize {
		t.Fatalf("Len() = %d after grow", e.Len())
	}
	for i := 0; i < 100; i++ {
		if want := i%7 == 0; e.IsSet(i) != want {
			t.Fatalf("bit %d: IsSet = %v, want %v", i, e.IsSet(i), want)
		}
	}
	if e.IsSet(3*elasticChunkSize - 1) {
		t.Fatal("new tail location born set")
	}
	// Grow is idempotent at or below the current length.
	e.Grow(5)
	if e.Len() != 3*elasticChunkSize {
		t.Fatalf("shrinking Grow changed Len to %d", e.Len())
	}
}

func TestElasticOutOfRangePanics(t *testing.T) {
	e := NewElastic(4)
	defer func() {
		if recover() == nil {
			t.Fatal("TAS out of range did not panic")
		}
	}()
	e.TAS(4)
}

// TestElasticConcurrentGrow races TAS/TryReset against Grow: no win may
// be lost across a spine swap and uniqueness must hold throughout.
func TestElasticConcurrentGrow(t *testing.T) {
	const n = 256
	e := NewElastic(n)
	var wg sync.WaitGroup
	wins := make([][]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for loc := 0; loc < n; loc++ {
				if e.TAS(loc) {
					wins[w] = append(wins[w], loc)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := n; g <= n+64*elasticChunkSize; g += elasticChunkSize {
			e.Grow(g)
		}
	}()
	wg.Wait()
	seen := map[int]bool{}
	total := 0
	for _, ws := range wins {
		for _, loc := range ws {
			if seen[loc] {
				t.Fatalf("location %d won twice", loc)
			}
			seen[loc] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("%d wins, want %d", total, n)
	}
	for loc := 0; loc < n; loc++ {
		if !e.IsSet(loc) {
			t.Fatalf("location %d lost its bit across grows", loc)
		}
	}
}
