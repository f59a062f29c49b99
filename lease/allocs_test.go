package lease

import (
	"context"
	"testing"
)

// The hot paths' allocation counts are machine-independent, so they are
// pinned exactly: no noise band, and one extra allocation on any of these
// paths fails tier-1. Timings are not asserted here — those belong to the
// benchmark/ module's parent-vs-change comparison.

// TestRenewBatchAllocs: RenewBatchInto with a dst that holds the batch
// allocates nothing while the stripe plan fits its on-stack scratch and
// one plan buffer past it; RenewBatch, which passes no dst, pays one
// results slice on top. Per call, not per item, which is what makes batch
// renewal allocation-free per renewal in the limit.
func TestRenewBatchAllocs(t *testing.T) {
	m, items := newStandingLeases(t, 1<<10)
	ctx := context.Background()
	dst := make([]RenewResult, 0, 512)
	fits := (planScratch - 1 - len(m.shards)) / 2 // the largest batch whose plan stays on the stack
	for _, c := range []struct {
		name string
		k    int
	}{{"k=1", 1}, {"k=8", 8}, {"k=fits", fits}, {"k=fits+1", fits + 1}, {"k=64", 64}, {"k=512", 512}} {
		k := c.k
		t.Run(c.name, func(t *testing.T) {
			chunk := items[:k]
			var plan float64
			if m.planLen(k) > planScratch {
				plan = 1
			}
			if got := testing.AllocsPerRun(100, func() {
				if _, err := m.RenewBatchInto(ctx, chunk, 0, dst); err != nil {
					t.Fatal(err)
				}
			}); got != plan {
				t.Errorf("RenewBatchInto(k=%d) allocates %v times per call, want %v", k, got, plan)
			}
			if got := testing.AllocsPerRun(100, func() {
				if _, err := m.RenewBatch(ctx, chunk, 0); err != nil {
					t.Fatal(err)
				}
			}); got != plan+1 {
				t.Errorf("RenewBatch(k=%d) allocates %v times per call, want %v", k, got, plan+1)
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
