package renaming

import (
	"context"
	"errors"

	"repro/internal/splitter"
)

// ErrOneShot is returned by Release on namers whose algorithm is
// inherently one-shot (Moir–Anderson splitter renaming).
var ErrOneShot = errors.New("renaming: one-shot namer does not support Release")

// MoirAnderson is the classic deterministic wait-free renaming of Moir and
// Anderson (reference [31] of the paper), built from read/write registers
// only — no test-and-set, no randomness. Each caller walks a triangular
// grid of splitters in O(k) register operations and receives a name below
// k(k+1)/2, where k is the actual contention.
//
// It is the paper's natural deterministic comparator: a *quadratic*
// namespace at linear step cost, against which the randomized TAS-based
// algorithms deliver O(k) names in O(log log k) probes. Experiment F6
// measures the trade-off.
type MoirAnderson struct {
	grid *splitter.Grid
}

// NewMoirAnderson builds a one-shot deterministic namer for at most n
// concurrent participants. Its namespace is n(n+1)/2 — quadratic, the
// price of determinism (Moir–Anderson 1995).
func NewMoirAnderson(n int) (*MoirAnderson, error) {
	g, err := splitter.NewGrid(n)
	if err != nil {
		return nil, err
	}
	return &MoirAnderson{grid: g}, nil
}

// Acquire implements Namer. The splitter grid walk is O(k) register
// operations with no blocking probe sequence to abandon, so cancellation
// is honoured only at entry.
func (m *MoirAnderson) Acquire(ctx context.Context) (int, error) {
	if ctx != nil && ctx.Err() != nil {
		return 0, cancelled(ctx)
	}
	u := m.grid.GetName()
	if u < 0 {
		return 0, ErrNamespaceExhausted
	}
	return u, nil
}

// AcquireN implements Namer. Moir–Anderson renaming is one-shot: a grid
// path, once walked, is consumed whether or not the caller keeps the name.
// Cancellation is therefore checked before each walk — never mid-batch
// with names in hand — but a batch that fails on exhaustion has still
// consumed its partial acquisitions (there is no Release to undo them),
// exactly as individual failed Acquire calls do.
func (m *MoirAnderson) AcquireN(ctx context.Context, k int) ([]int, error) {
	if k < 1 {
		return nil, badConfig("moiranderson", "AcquireN", "", "need k >= 1")
	}
	names := make([]int, 0, k)
	for len(names) < k {
		u, err := m.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		names = append(names, u)
	}
	return names, nil
}

// Namespace implements Namer.
func (m *MoirAnderson) Namespace() int { return m.grid.Namespace() }

// Release implements Namer; Moir–Anderson renaming is one-shot, so Release
// always fails with ErrOneShot.
func (m *MoirAnderson) Release(int) error { return ErrOneShot }

// RegisterSteps returns the total read/write register operations performed
// so far — the read-write model's analogue of TAS probe counts.
func (m *MoirAnderson) RegisterSteps() int64 { return m.grid.Steps() }

var _ Namer = (*MoirAnderson)(nil)
