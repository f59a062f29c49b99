package harness

import (
	"context"
	"sync"

	renaming "repro"
)

// runF6 compares the deterministic Moir–Anderson splitter renaming
// (read/write registers, [31] in the paper) against the randomized
// adaptive TAS-based algorithms on the concurrent driver: namespace
// consumed and per-caller work as the contention k grows.
func runF6(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F6",
		Title:   "Deterministic vs randomized adaptive renaming",
		Claim:   "Moir-Anderson: deterministic, O(k) steps but Theta(k^2) names; randomized TAS: O(k) names at O((lglg k)^2) probes",
		Columns: []string{"k", "MA max name", "MA regops/call", "adaptive max name", "adaptive probes/call"},
	}
	ks := []int{16, 64, 256, 1024}
	if cfg.Quick {
		ks = []int{16, 64, 256}
	}
	for _, k := range ks {
		ma, err := renaming.NewMoirAnderson(k)
		if err != nil {
			return nil, err
		}
		maMax, err := concurrentMaxName(ma, k)
		if err != nil {
			return nil, err
		}
		ad, err := renaming.NewAdaptive(k,
			renaming.WithCounting(),
			renaming.WithSeed(seedAt(cfg.Seed, k)))
		if err != nil {
			return nil, err
		}
		adMax, err := concurrentMaxName(ad, k)
		if err != nil {
			return nil, err
		}
		ops, _, _ := ad.Probes()
		t.AddRow(k,
			maMax,
			float64(ma.RegisterSteps())/float64(k),
			adMax,
			float64(ops)/float64(k))
	}
	t.AddNote("both columns measured under real goroutine contention (k concurrent callers), so names and op counts are schedule-dependent")
	t.AddNote("MA names grow ~quadratically with k; adaptive names stay O(k) — the paper's namespace win")
	t.AddNote("MA register ops grow with k; adaptive probes stay near their (lglg k)^2 + t0 budget")
	return t, nil
}

// concurrentMaxName launches k concurrent Acquire calls and returns the
// largest acquired name.
func concurrentMaxName(nm renaming.Namer, k int) (int, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		maxName  int
		firstErr error
	)
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, err := nm.Acquire(context.Background())
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if u > maxName {
				maxName = u
			}
		}()
	}
	wg.Wait()
	return maxName, firstErr
}
