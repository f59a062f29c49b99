package harness

import (
	"context"
	"fmt"
	"sync"

	renaming "repro"
)

// runF7 is the long-lived benchmark matrix: sustained release/re-acquire
// churn at a fixed background load, comparing the LevelArray against the
// one-shot ReBatching family and the uniform baseline. The quantity
// measured is steady-state TAS probes per acquire — the one-shot
// algorithms' batch layouts drain under churn (released slots reopen in
// batches later callers no longer probe effectively), while the LevelArray
// paper's claim is that its per-level occupancy is self-stabilizing and
// probes stay O(1).
func runF7(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F7",
		Title:   "Long-lived churn: steady-state probes per acquire",
		Claim:   "LevelArray keeps O(1) probes under release/re-acquire churn; one-shot layouts degrade",
		Columns: []string{"namer", "load", "probes/acquire"},
	}
	capacity := 1 << 10
	cycles := 400
	if cfg.Quick {
		capacity = 1 << 8
		cycles = 100
	}
	const workers = 8

	// Namers are selected through the driver registry — the same DSNs an
	// operator would hand to renamed's -namer flag, so the experiment
	// matrix and the service configuration surface can't drift apart.
	namers := []struct {
		name string
		dsn  string
	}{
		{"levelarray", "levelarray?n=%d&counting=1&seed=%d"},
		{"rebatching(t0=6)", "rebatching?n=%d&counting=1&seed=%d&t0=6"},
		{"adaptive", "adaptive?n=%d&counting=1&seed=%d&t0=6"},
		{"fastadaptive", "fastadaptive?n=%d&counting=1&seed=%d&t0=6"},
		{"uniform", "uniform?n=%d&counting=1&seed=%d"},
	}
	loads := []float64{0.25, 0.5, 0.75}

	for _, spec := range namers {
		for li, load := range loads {
			nm, err := renaming.Open(fmt.Sprintf(spec.dsn, capacity, seedAt(cfg.Seed, li)))
			if err != nil {
				return nil, err
			}
			probes, err := churnProbes(nm, int(float64(capacity)*load), workers, cycles)
			if err != nil {
				return nil, err
			}
			t.AddRow(spec.name, fmt.Sprintf("%d%%", int(load*100)), probes)
		}
	}
	t.AddNote("capacity n=%d, %d workers x %d release/re-acquire cycles after pinning load*n names", capacity, workers, cycles)
	t.AddNote("measured after a warm-up quarter so tables reflect steady state, not the one-shot transient")
	t.AddNote("workers race as real goroutines, so probes/acquire is schedule-dependent: a fixed seed fixes the namers' streams, not the interleaving")
	return t, nil
}

// churnProbes pins `pinned` names as background load, then runs workers
// through release/re-acquire cycles and reports mean probes per acquire
// (Release performs no probes).
func churnProbes(nm renaming.Namer, pinned, workers, cycles int) (float64, error) {
	type prober interface {
		Probes() (ops, wins int64, ok bool)
	}
	p, ok := nm.(prober)
	if !ok {
		return 0, fmt.Errorf("namer %T does not expose probe counts", nm)
	}
	ctx := context.Background()
	for i := 0; i < pinned; i++ {
		if _, err := nm.Acquire(ctx); err != nil {
			return 0, fmt.Errorf("pinning name %d/%d: %w", i, pinned, err)
		}
	}
	runWorkers := func(perWorker int) error {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < perWorker; c++ {
					u, err := nm.Acquire(ctx)
					if err != nil {
						errs <- err
						return
					}
					if err := nm.Release(u); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	// Warm the array into steady state before measuring, so the table
	// reflects sustained traffic rather than the one-shot transient.
	if err := runWorkers(cycles / 4); err != nil {
		return 0, err
	}
	opsBefore, _, _ := p.Probes()
	if err := runWorkers(cycles); err != nil {
		return 0, err
	}
	opsAfter, _, _ := p.Probes()
	return float64(opsAfter-opsBefore) / float64(workers*cycles), nil
}
