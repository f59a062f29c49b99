// Counting: adaptive renaming as the gateway to compact concurrent data
// structures.
//
// The paper (and reference [4] within it) connects renaming to counting:
// once k concurrent participants hold distinct names of size O(k), any
// per-participant state can live in a dense array of size O(k) — no hash
// maps, no locks, no pre-registration. This example lets an *unknown*
// number of goroutines check in, each acquiring an adaptive name and
// depositing its contribution at that index; a final scan of the O(k)
// prefix aggregates everything.
//
// Run with: go run ./examples/counting
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"

	renaming "repro"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Println("counting:", err)
		os.Exit(1)
	}
}

func run() error {
	// The system supports up to maxContention participants, but today only
	// k of them show up — the point of ADAPTIVE renaming is that cost and
	// namespace scale with k, not with the bound.
	const (
		maxContention = 1 << 16
		k             = 100
	)
	namer, err := renaming.NewAdaptive(maxContention, renaming.WithT0Override(6))
	if err != nil {
		return err
	}

	// contributions is indexed directly by acquired names. We allocate the
	// full (lazy, zeroed) namespace; only the O(k) prefix will be touched.
	contributions := make([]atomic.Int64, namer.Namespace())

	var wg sync.WaitGroup
	maxName := atomic.Int64{}
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(weight int64) {
			defer wg.Done()
			name, err := namer.Acquire(context.Background())
			if err != nil {
				panic(err) // unreachable: k <= maxContention
			}
			contributions[name].Store(weight)
			for {
				cur := maxName.Load()
				if int64(name) <= cur || maxName.CompareAndSwap(cur, int64(name)) {
					break
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()

	// Aggregate by scanning only the used prefix — O(k), not O(maxContention).
	prefix := int(maxName.Load()) + 1
	var sum int64
	used := 0
	for i := 0; i < prefix; i++ {
		if v := contributions[i].Load(); v != 0 {
			sum += v
			used++
		}
	}

	wantSum := int64(k * (k + 1) / 2)
	fmt.Printf("participants: %d (system bound %d)\n", k, maxContention)
	fmt.Printf("names used:   %d distinct, all below %d (namespace bound %d)\n", used, prefix, namer.Namespace())
	fmt.Printf("sum of contributions: %d (want %d)\n", sum, wantSum)
	if sum != wantSum || used != k {
		return fmt.Errorf("aggregation mismatch: sum %d want %d, used %d want %d", sum, wantSum, used, k)
	}
	fmt.Printf("scan cost: %d slots instead of %d — adaptive names are O(k) ✓\n", prefix, maxContention)
	return nil
}
