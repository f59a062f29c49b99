package core

import (
	"fmt"
	"testing"

	"repro/internal/tas"
	"repro/internal/xrand"
)

// stepEnv counts every TAS step over a dense space. It is not a Batcher,
// so probe batches run TryBatch's reference loop through its TAS.
type stepEnv struct {
	space *tas.Dense
	rng   xrand.Rand
	steps int
}

func (e *stepEnv) TAS(loc int) bool {
	e.steps++
	return e.space.TAS(loc)
}

func (e *stepEnv) Intn(n int) int { return e.rng.Intn(n) }

// batchEnv is a stepEnv that runs probe batches itself, the way the
// concurrent driver does: the PRNG and the space are called directly.
type batchEnv struct{ stepEnv }

func (e *batchEnv) TryBatch(lo, size, t int) int {
	for ; t > 0; t-- {
		x := lo + e.rng.Intn(size)
		e.steps++
		if e.space.TAS(x) {
			return x
		}
	}
	return NoName
}

var _ Batcher = (*batchEnv)(nil)

// acquisition is what one GetName call leaves behind.
type acquisition struct {
	name, steps int
	rng         xrand.Rand
}

// drain runs GetName for process 0, 1, ... against one fresh dense space
// until the namespace is exhausted, each process on its own stream.
func drain(alg Algorithm, seed uint64, batched bool) []acquisition {
	space := tas.NewDense(alg.Namespace())
	var out []acquisition
	for p := uint64(0); ; p++ {
		be := &batchEnv{stepEnv{space: space, rng: xrand.MakeStream(seed, p)}}
		var env Env = &be.stepEnv
		if batched {
			env = be
		}
		u := alg.GetName(env)
		out = append(out, acquisition{name: u, steps: be.steps, rng: be.rng})
		if u == NoName {
			return out
		}
	}
}

// TestTryBatchMatchesReference drains ReBatching, Adaptive and
// FastAdaptive twice from one seed: once through an Env that runs its own
// probe batches and once through one that runs TryBatch's reference loop.
// Every acquisition must get the same name in the same number of TAS
// steps and leave its PRNG in the same state — which is what lets the
// concurrent driver batch probes while the simulator counts each one.
func TestTryBatchMatchesReference(t *testing.T) {
	for _, n := range []int{64, 4096} {
		for _, tc := range []struct {
			name string
			alg  Algorithm
		}{
			{"rebatching", MustReBatching(ReBatchingConfig{N: n, Epsilon: 1})},
			{"adaptive", MustAdaptive(AdaptiveConfig{Epsilon: 1, MaxLevel: MaxLevelFor(n)})},
			{"fastadaptive", MustFastAdaptive(FastAdaptiveConfig{MaxLevel: MaxLevelFor(n)})},
		} {
			alg := tc.alg
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				ref := drain(alg, uint64(n), false)
				got := drain(alg, uint64(n), true)
				if len(got) != len(ref) {
					t.Fatalf("batched drain took %d acquisitions, reference %d", len(got), len(ref))
				}
				for p := range ref {
					if got[p] != ref[p] {
						t.Fatalf("process %d: batched (name %d, %d steps) != reference (name %d, %d steps), or the PRNG states differ",
							p, got[p].name, got[p].steps, ref[p].name, ref[p].steps)
					}
				}
				if len(ref) < n {
					t.Fatalf("drained only %d names, want at least %d", len(ref)-1, n)
				}
			})
		}
	}
}
