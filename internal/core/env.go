// Package core implements the renaming algorithms of Alistarh, Aspnes,
// Giakkoupis and Woelfel, "Randomized loose renaming in O(log log n) time"
// (PODC 2013): the non-adaptive ReBatching algorithm (§4, Fig. 1), the
// adaptive AdaptiveReBatching algorithm (§5.1), and the work-efficient
// FastAdaptiveReBatching algorithm (§5.2, Fig. 2).
//
// Every algorithm is written once, against the tiny Env interface below,
// and is executed by two different drivers:
//
//   - the concurrent driver (package renaming at the repository root),
//     where Env.TAS is an atomic test-and-set (a load, then a
//     compare-and-swap only if the cell is unset — one step either way,
//     see internal/tas) and processes are goroutines scheduled by the Go
//     runtime; and
//   - the lock-step simulator (internal/sim), where an adversary policy
//     decides which process performs its next shared-memory step, and
//     steps are counted exactly as the paper's complexity measure defines.
//
// The algorithms decide which range a batch probes and how many probes it
// makes; the probe loop itself goes through TryBatch. The concurrent
// driver implements Batcher and hands each batch to internal/tas's probe
// kernel, tas.Dense.TryBatch, which draws and probes with the PRNG state
// in registers and no call per probe. Every other Env, the simulator's
// included, runs TryBatch's reference loop, one Env.TAS per probe. Both
// loops draw the same coins in the same order and make the same TAS
// calls, so one TAS is one step under either driver and a seed yields the
// same names under both.
//
// Names are global TAS-location indices: a process owns name u exactly when
// it won the test-and-set at location u.
package core

// NoName is returned by renaming attempts that did not acquire a name
// (the paper's pseudocode returns -1).
const NoName = -1

// Env is the execution environment of a single process. Every call to TAS
// is one shared-memory step in the paper's complexity measure; Intn models
// a local coin flip and is free.
//
// A driver may also implement Batcher (run a probe batch in one call) and
// Interruptible (cancel between batches). An Env that wraps another to
// intercept TAS must not forward TryBatch; see Batcher.
//
// An Env is owned by exactly one process and must not be shared.
type Env interface {
	// TAS performs a test-and-set on global location loc and reports
	// whether the calling process won it.
	TAS(loc int) bool
	// Intn returns a uniform random int in [0, n); it must panic if n <= 0.
	Intn(n int) int
}

// Algorithm is a single-process renaming procedure: it runs to completion
// inside env and returns the acquired name, or NoName on failure (only
// possible for variants without a backup phase).
//
// All algorithm types in this package implement Algorithm and are stateless
// with respect to executions: the same object is shared by all processes of
// a run, and all mutable state lives behind Env.TAS.
type Algorithm interface {
	GetName(env Env) int
	// Namespace returns the exclusive upper bound of the target namespace:
	// every name returned by GetName lies in [0, Namespace()). For objects
	// based at location 0 this equals the namespace size.
	Namespace() int
}

// LongLived marks algorithms whose probe-complexity analysis survives
// release/re-acquire churn: as long as at most MaxConcurrency() names are
// held at any instant, GetName keeps its stated probe bound in steady state.
// Releasing a name is performed by the driver (resetting the TAS location),
// not by the algorithm; the algorithms of this package are one-shot and do
// not implement LongLived, internal/levelarray does.
type LongLived interface {
	Algorithm
	// MaxConcurrency returns the largest number of concurrently held names
	// the analysis supports.
	MaxConcurrency() int
}
