package chaos

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
	"repro/leaseclient"
)

// countingTransport records call counts and returns canned successes.
type countingTransport struct {
	renewBatches, releaseBatches, acquires atomic.Int64
}

func (f *countingTransport) AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) (wire.Leases, error) {
	f.acquires.Add(1)
	return wire.Leases{}, nil
}
func (f *countingTransport) RenewBatch(ctx context.Context, req *wire.RenewBatchRequest) (wire.BatchResults, error) {
	f.renewBatches.Add(1)
	return wire.BatchResults{}, nil
}
func (f *countingTransport) ReleaseBatch(ctx context.Context, req *wire.ReleaseBatchRequest) (wire.BatchResults, error) {
	f.releaseBatches.Add(1)
	return wire.BatchResults{}, nil
}
func (f *countingTransport) Close() error { return nil }

var _ leaseclient.Transport = (*countingTransport)(nil)

// TestTransportDuplication: with DupRenew/DupRelease at 1.0, every
// renew_batch and release_batch reaches the inner transport twice —
// and acquires NEVER duplicate, whatever the probabilities say.
func TestTransportDuplication(t *testing.T) {
	inner := &countingTransport{}
	ft := WrapTransport(inner, 1, "t", TransportFaults{DupRenew: 1, DupRelease: 1}, nil)
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if _, err := ft.RenewBatch(ctx, &wire.RenewBatchRequest{}); err != nil {
			t.Fatal(err)
		}
		if _, err := ft.ReleaseBatch(ctx, &wire.ReleaseBatchRequest{}); err != nil {
			t.Fatal(err)
		}
		if _, err := ft.AcquireBatch(ctx, &wire.AcquireBatchRequest{Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.renewBatches.Load(); got != 10 {
		t.Fatalf("inner saw %d renew_batches, want 10 (every call duplicated)", got)
	}
	if got := inner.releaseBatches.Load(); got != 10 {
		t.Fatalf("inner saw %d release_batches, want 10", got)
	}
	if got := inner.acquires.Load(); got != 5 {
		t.Fatalf("inner saw %d acquires, want 5 — acquires must NEVER duplicate", got)
	}
	st := ft.Stats()
	if st.DupRenews != 5 || st.DupReleases != 5 {
		t.Fatalf("stats %+v, want 5 dup renews and 5 dup releases", st)
	}
}

// TestTransportGate: flipping the shared active flag off silences every
// fault — the heal phase in one store.
func TestTransportGate(t *testing.T) {
	inner := &countingTransport{}
	var active atomic.Bool
	active.Store(false)
	ft := WrapTransport(inner, 1, "t", TransportFaults{DupRenew: 1, DupRelease: 1}, &active)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		ft.RenewBatch(ctx, &wire.RenewBatchRequest{})
	}
	if got := inner.renewBatches.Load(); got != 5 {
		t.Fatalf("inner saw %d renew_batches with faults gated off, want 5", got)
	}
}

// TestTransportDeterministicSchedule: the dup decisions are a pure
// function of (seed, label).
func TestTransportDeterministicSchedule(t *testing.T) {
	run := func(seed uint64, label string) string {
		ft := WrapTransport(&countingTransport{}, seed, label, TransportFaults{DupRenew: 0.5}, nil)
		out := make([]byte, 64)
		for i := range out {
			dup, _, _ := ft.draw()
			if dup {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
		}
		return string(out)
	}
	if run(9, "a") != run(9, "a") {
		t.Fatal("same seed and label produced different dup schedules")
	}
	if run(9, "a") == run(9, "b") {
		t.Fatal("different labels produced identical dup schedules")
	}
	if run(9, "a") == run(10, "a") {
		t.Fatal("different seeds produced identical dup schedules")
	}
}
