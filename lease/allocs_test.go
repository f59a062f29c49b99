package lease

import (
	"context"
	"fmt"
	"testing"
)

// The hot paths' allocation counts are machine-independent, so they are
// pinned exactly: no noise band, and one extra allocation on any of these
// paths fails tier-1. Timings are not asserted here — those belong to the
// benchmark/ module's parent-vs-change comparison.

// TestRenewBatchAllocs: a RenewBatch call costs 2 allocations whatever
// its size (the results and the stripe plan) — per call, not per item,
// which is what makes batch renewal allocation-free per renewal in the
// limit.
func TestRenewBatchAllocs(t *testing.T) {
	m, items := newStandingLeases(t, 1<<10)
	ctx := context.Background()
	for _, k := range []int{1, 64, 512} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			chunk := items[:k]
			if got := testing.AllocsPerRun(100, func() {
				if _, err := m.RenewBatch(ctx, chunk, 0); err != nil {
					t.Fatal(err)
				}
			}); got != 2 {
				t.Fatalf("RenewBatch(k=%d) allocates %v times per call, want 2", k, got)
			}
		})
	}
}

// TestAcquireReleaseAllocs pins the one-item cycle AcquireBatch(1) +
// ReleaseBatch(1) without an observer: 8 allocations — the per-call costs
// of the batch shape (the namer's AcquireN, the holder record, result
// slices, stripe plans, the hand-back list) paid for a single lease.
// The namer's share is one allocation, its probe environment: the PRNG
// stream is held in it by value, not as a second heap object
// (renaming.TestAcquireAllocs).
func TestAcquireReleaseAllocs(t *testing.T) {
	m := newBenchManager(t, 0)
	if got := testing.AllocsPerRun(200, func() {
		l, err := acquire1(m, "allocs", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := release1(m, l.Name, l.Token); err != nil {
			t.Fatal(err)
		}
	}); got != 8 {
		t.Fatalf("one-item acquire+release allocates %v times per cycle, want 8", got)
	}
}
