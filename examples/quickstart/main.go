// Quickstart: 64 goroutines concurrently acquire distinct small names.
//
// Each goroutine starts with nothing but the shared Namer (think of the
// goroutines as processes arriving with huge, unwieldy unique IDs — here,
// their goroutine index stands in for that). After renaming, every
// goroutine owns a distinct integer below Namespace() = (1+ε)·64, obtained
// in O(log log n) test-and-set probes.
//
// The example uses the v2 acquisition surface end to end: the namer is
// constructed from a DSN (renaming.Open), the
// goroutines acquire through the context-aware Acquire, and a final batch
// acquisition (AcquireN) grabs a block of names in one call.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"

	renaming "repro"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Println("quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const participants = 64

	// The DSN selects the algorithm and its tunables as a string — the
	// same surface cmd/renamed exposes as -namer. t0=6 is the practical
	// batch-0 constant; see EXPERIMENTS.md F2.
	namer, err := renaming.Open(fmt.Sprintf("rebatching?n=%d&t0=6", participants))
	if err != nil {
		return err
	}
	fmt.Printf("renaming %d goroutines into [0, %d)\n\n", participants, namer.Namespace())

	ctx := context.Background()
	names := make([]int, participants)
	var wg sync.WaitGroup
	for g := 0; g < participants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u, err := namer.Acquire(ctx)
			if err != nil {
				// Impossible here: capacity covers all participants.
				panic(err)
			}
			names[g] = u
		}(g)
	}
	wg.Wait()

	sorted := append([]int(nil), names...)
	sort.Ints(sorted)
	fmt.Println("assigned names (sorted):")
	fmt.Println(sorted)

	seen := make(map[int]bool, participants)
	for _, u := range sorted {
		if seen[u] {
			return fmt.Errorf("duplicate name %d — renaming safety violated", u)
		}
		seen[u] = true
	}
	fmt.Printf("\nall %d names distinct, all below %d ✓\n", participants, namer.Namespace())

	// Batch acquisition: hand every name back, then take a block of 16 in
	// one AcquireN call — one PRNG stream for the whole batch, and either
	// 16 names or an error with nothing held.
	for _, u := range names {
		if err := namer.Release(u); err != nil {
			return err
		}
	}
	block, err := namer.AcquireN(ctx, 16)
	if err != nil {
		return err
	}
	sort.Ints(block)
	fmt.Printf("\nbatch of %d via AcquireN: %v\n", len(block), block)
	return nil
}
