package renaming_test

import (
	"context"
	"fmt"
	"sort"
	"sync"

	renaming "repro"
)

// ExampleNewReBatching renames a fixed-size group of goroutines into a
// namespace of twice the group size.
func ExampleNewReBatching() {
	namer, err := renaming.NewReBatching(8, renaming.WithSeed(42))
	if err != nil {
		fmt.Println(err)
		return
	}
	var (
		wg    sync.WaitGroup
		names = make([]int, 8)
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names[g], _ = namer.Acquire(context.Background())
		}(g)
	}
	wg.Wait()

	sort.Ints(names)
	distinct := true
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			distinct = false
		}
	}
	fmt.Println("namespace:", namer.Namespace())
	fmt.Println("all distinct:", distinct)
	// Output:
	// namespace: 16
	// all distinct: true
}

// ExampleNewAdaptive shows that adaptive names scale with the actual
// contention, not with the configured capacity.
func ExampleNewAdaptive() {
	namer, err := renaming.NewAdaptive(1<<20, renaming.WithSeed(7))
	if err != nil {
		fmt.Println(err)
		return
	}
	// Only three participants show up.
	maxName := 0
	for i := 0; i < 3; i++ {
		u, err := namer.Acquire(context.Background())
		if err != nil {
			fmt.Println(err)
			return
		}
		if u > maxName {
			maxName = u
		}
	}
	fmt.Println("small names despite huge capacity:", maxName < 64)
	// Output:
	// small names despite huge capacity: true
}

// ExampleNamer_Release demonstrates the long-lived extension: released
// names return to the pool and can be reacquired.
func ExampleNamer_Release() {
	namer, err := renaming.NewReBatching(4, renaming.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	u, _ := namer.Acquire(context.Background())
	fmt.Println("release:", namer.Release(u))
	fmt.Println("double release:", namer.Release(u) != nil)
	// Output:
	// release: <nil>
	// double release: true
}
