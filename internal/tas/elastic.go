package tas

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// elasticChunkBits sizes Elastic's fixed allocation unit: 8192 cells
// (32 KiB) per chunk. Power-of-two so locating a cell is a shift and a
// mask on the probe path.
const (
	elasticChunkBits = 13
	elasticChunkSize = 1 << elasticChunkBits
	elasticChunkMask = elasticChunkSize - 1
)

// elasticSpine is one immutable snapshot of an Elastic space's layout.
// Chunks are shared between snapshots: growing builds a NEW spine whose
// prefix aliases the old spine's chunks, so a TAS racing a grow lands in
// the same memory either way — no set bit is ever copied, moved, or
// lost. Only the spine pointer is swapped.
type elasticSpine struct {
	chunks [][]int32
	n      int // logical length; the last chunk may be partially in range
}

// Elastic is a Dense-like concurrent TAS space whose length can grow
// online. Locations never move and memory is never reclaimed: Grow
// appends chunks, and a later logical shrink at a higher layer (the
// LevelArray's drain-only tail) simply stops probing the suffix while
// releases of already-held slots keep working.
//
// TAS/IsSet/TryReset are safe for arbitrary concurrency,
// including concurrently with Grow. Grow calls are serialized
// internally.
type Elastic struct {
	spine atomic.Pointer[elasticSpine]
	mu    sync.Mutex // serializes Grow
}

// NewElastic returns an Elastic space with n locations, all unset.
func NewElastic(n int) *Elastic {
	if n < 0 {
		panic(fmt.Sprintf("tas: NewElastic(%d): negative size", n))
	}
	e := &Elastic{}
	e.spine.Store(buildSpine(nil, n))
	return e
}

// buildSpine extends prev's chunk list to cover n cells, reusing every
// existing chunk (prev == nil starts from scratch).
func buildSpine(prev *elasticSpine, n int) *elasticSpine {
	want := (n + elasticChunkSize - 1) >> elasticChunkBits
	var chunks [][]int32
	if prev != nil {
		chunks = append(chunks, prev.chunks...)
	}
	for len(chunks) < want {
		chunks = append(chunks, make([]int32, elasticChunkSize))
	}
	return &elasticSpine{chunks: chunks, n: n}
}

// Grow extends the space to at least n locations; n at or below the
// current length is a no-op (grow-only: slots never disappear, a
// shrinking caller just stops handing out the tail). New locations
// start unset.
func (e *Elastic) Grow(n int) {
	if n < 0 {
		panic(fmt.Sprintf("tas: Elastic.Grow(%d): negative size", n))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.spine.Load()
	if n <= cur.n {
		return
	}
	e.spine.Store(buildSpine(cur, n))
}

// cell returns the addressed atomic cell, panicking (like a slice
// index) when loc is outside [0, Len()).
func (e *Elastic) cell(loc int) *int32 {
	s := e.spine.Load()
	if loc < 0 || loc >= s.n {
		panic(fmt.Sprintf("tas: Elastic location %d out of range [0,%d)", loc, s.n))
	}
	return &s.chunks[loc>>elasticChunkBits][loc&elasticChunkMask]
}

// TAS wins iff the caller is the first to set location loc.
func (e *Elastic) TAS(loc int) bool {
	return testAndSet(e.cell(loc))
}

// Len returns the current number of locations.
func (e *Elastic) Len() int { return e.spine.Load().n }

// IsSet reports whether location loc has been won.
func (e *Elastic) IsSet(loc int) bool {
	return atomic.LoadInt32(e.cell(loc)) != 0
}

// TryReset atomically unsets loc, reporting whether this call won the
// set→unset transition (see Dense.TryReset).
func (e *Elastic) TryReset(loc int) bool {
	return atomic.CompareAndSwapInt32(e.cell(loc), 1, 0)
}

var _ Space = (*Elastic)(nil)
