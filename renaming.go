// Package renaming provides randomized loose renaming for concurrent Go
// programs: n goroutines can each acquire a distinct small integer name
// from a namespace of size O(n), using only test-and-set operations, in
// O(log log n) expected probes per caller. A test-and-set reads its cell
// and compare-and-swaps it only if unset, so a probe that loses on a set
// cell costs a load; each probe is one step in the paper's measure.
//
// The algorithms implement Alistarh, Aspnes, Giakkoupis and Woelfel,
// "Randomized loose renaming in O(log log n) time" (PODC 2013):
//
//   - ReBatching (NewReBatching): non-adaptive — the maximum number of
//     participants n is fixed up front; names come from [0, (1+ε)n); every
//     caller finishes in log log n + O(1) probes with high probability.
//   - AdaptiveReBatching (NewAdaptive): adaptive — only an upper bound on
//     contention is fixed; with k actual participants, names are O(k) and
//     each caller takes O((log log k)²) probes, both w.h.p.
//   - FastAdaptiveReBatching (NewFastAdaptive): adaptive with total work
//     O(k log log k) w.h.p. — the cheapest option when many callers rename
//     at once.
//
// Baseline namers (NewUniform, NewLinearScan) implement the classical
// alternatives for comparison; see EXPERIMENTS.md for measured trade-offs,
// including the practical effect of the paper's large analysis constant t₀
// (tunable via WithT0Override).
//
// # Acquisition API
//
// Acquire(ctx) is the primary acquisition call: it honours context
// cancellation between probe batches, so a caller abandoning a slow
// acquisition gets ErrCancelled (wrapping ctx.Err()) and never leaks a set
// TAS slot. AcquireN(ctx, k) acquires k distinct names as one batch over a
// single PRNG stream, releasing everything it took if it cannot deliver
// all k.
//
// Namers can also be constructed from a DSN string:
//
//	nm, err := renaming.Open("rebatching?n=1024&eps=0.5")
//
// See Open for the grammar and Drivers for the names it accepts.
//
// Construction-time misconfiguration — an invalid option value, an option
// that does not apply to the chosen namer, a malformed DSN — is rejected
// with an error matching ErrBadConfig (concretely a *ConfigError).
//
// All namers are safe for concurrent use. Renaming is one-shot in the
// paper's model; the Release method is an extension that returns a name to
// the pool (uniqueness remains guaranteed, the step-complexity analysis
// does not carry over to heavy churn).
//
// The underlying algorithm implementations live in internal/core and are
// shared with the adversarial-scheduler simulator used by the experiment
// harness (cmd/renamebench).
package renaming

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tas"
	"repro/internal/xrand"
)

// LongLivedNamer is a Namer whose probe-complexity guarantees survive
// arbitrary release/re-acquire churn, as long as at most Capacity() names
// are held at any instant. The one-shot namers above also expose Release,
// but only LevelArray (and future long-lived algorithms) carry an analysis
// for the steady state.
type LongLivedNamer interface {
	Namer
	// Capacity returns the maximum number of concurrently held names for
	// which the namer's performance guarantees hold. Uniqueness holds
	// unconditionally.
	Capacity() int
}

// ResizableNamer is a LongLivedNamer whose capacity can change while
// acquisitions are in flight. Grow takes effect immediately; shrink
// marks the namespace tail drain-only — names already held above the
// new bound stay valid until released, new acquisitions never land
// there — and Draining reports true until the last such holder lets
// go. Namespace() never decreases, so every outstanding name remains
// releasable. LevelArray is the implementation; the one-shot namers'
// analysis fixes n up front.
type ResizableNamer interface {
	LongLivedNamer
	// Resize sets the capacity to n online. Concurrent Acquire calls
	// observe either the old or the new layout, never a mix.
	Resize(n int) error
	// Draining reports whether any name above the current capacity's
	// bound is still held (a shrink has not yet quiesced).
	Draining() bool
	// ResizeEpoch returns the number of capacity changes applied so
	// far — a fence for tests and monitors racing Resize.
	ResizeEpoch() uint64
}

// Namer assigns distinct integer names to concurrent callers.
type Namer interface {
	// Acquire obtains a name unique among all unreleased names handed out
	// by this Namer. It is safe to call from multiple goroutines. If ctx
	// ends before a name is secured, Acquire returns an error matching
	// both ErrCancelled and ctx.Err(), and no TAS slot stays set on the
	// caller's behalf.
	Acquire(ctx context.Context) (int, error)
	// AcquireN obtains k distinct names as one batch, amortizing the
	// per-call PRNG-stream setup over the whole batch. It returns either
	// k names or an error with zero names retained: on exhaustion or
	// cancellation partway through, every name already taken is released
	// before returning. k < 1 is rejected with ErrBadConfig.
	AcquireN(ctx context.Context, k int) ([]int, error)
	// Namespace returns the exclusive upper bound on names: every name lies
	// in [0, Namespace()).
	Namespace() int
	// Release returns a previously acquired name to the pool (long-lived
	// extension; not part of the paper's one-shot model).
	Release(name int) error
}

// space is the TAS surface namers need: probing plus the atomic release
// extension and the read-only occupancy view the drain check uses.
type space interface {
	tas.Space
	TryReset(loc int) bool
	IsSet(loc int) bool
}

// namer is the shared concurrent driver around a core algorithm.
type namer struct {
	alg    core.Algorithm
	mem    space
	seed   uint64
	stream atomic.Uint64
	// dense is mem when mem is a *tas.Dense: concurrentEnv.TryBatch hands
	// each batch to its kernel. Only namers built over a Dense batch.
	dense *tas.Dense
	// With WithCounting, every Acquire and AcquireN adds its TAS steps and
	// wins to ops and wins once, on its way out.
	counting  bool
	ops, wins atomic.Int64
	// allowed, when non-nil, post-validates a won slot against the
	// algorithm's CURRENT geometry: a win that raced a shrink (probed
	// under the old epoch, published before the validation) is handed
	// back and the probe sequence retried, so no new grant lands in a
	// drain-only region.
	allowed func(name int) bool
}

func newNamer(alg core.Algorithm, opts options) *namer {
	d := tas.NewDense(alg.Namespace())
	n := newNamerOn(alg, opts, d)
	n.dense = d
	return n
}

// newNamerOn is newNamer over a caller-built space — LevelArray's path,
// where the space must exist (and be growable) before the algorithm's
// resize hook can be wired to it.
func newNamerOn(alg core.Algorithm, opts options, mem space) *namer {
	return &namer{alg: alg, mem: mem, seed: opts.seed, counting: opts.counting}
}

// tally adds one call's TAS steps, kept in its environment, and its wins
// to the namer's counters, if it keeps them.
func (n *namer) tally(env *concurrentEnv, wins int) {
	if n.counting {
		n.ops.Add(env.steps)
		n.wins.Add(int64(wins))
	}
}

// env builds the per-call execution environment: the namer (for its TAS
// space) plus a fresh private PRNG stream (derived from an atomic counter,
// so calls never contend on randomness). A context that can never end —
// nil, Background, TODO, or values over them, all with a nil Done —
// builds a non-cancellable environment, which skips the per-batch poll.
// (Done makes a cancellable context create its channel, once per
// context; the poll it saves would run on every batch.) The stream's
// state lives inside the environment, so the environment is the call's
// only heap object.
func (n *namer) env(ctx context.Context) *concurrentEnv {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	return &concurrentEnv{
		nm:  n,
		rng: xrand.MakeStream(n.seed, n.stream.Add(1)),
		ctx: ctx,
	}
}

// acquireOne runs one probe sequence inside env and maps the algorithm's
// outcome onto the error taxonomy. It also reports how many TAS wins the
// sequence made: the name it returns and any it handed back on the way.
// The cancellation contract — no set TAS slot left behind — has two
// halves: the algorithm returns core.Cancelled before its next batch when
// the env reports an interrupt (so nothing was won), and a name won in the
// race window around cancellation is handed straight back here before
// ErrCancelled is returned.
func (n *namer) acquireOne(ctx context.Context, env *concurrentEnv) (name, wins int, err error) {
	for {
		u := n.alg.GetName(env)
		switch {
		case u == core.Cancelled:
			return 0, wins, cancelled(ctx)
		case u == core.NoName:
			return 0, wins, ErrNamespaceExhausted
		}
		wins++
		if ctx != nil && ctx.Err() != nil {
			n.mem.TryReset(u)
			return 0, wins, cancelled(ctx)
		}
		if n.allowed != nil && !n.allowed(u) {
			// The slot was shrunk out from under the probe sequence;
			// give it back and probe again under the new geometry.
			n.mem.TryReset(u)
			continue
		}
		return u, wins, nil
	}
}

// Acquire implements Namer.
func (n *namer) Acquire(ctx context.Context) (int, error) {
	if ctx != nil && ctx.Err() != nil {
		return 0, cancelled(ctx)
	}
	env := n.env(ctx)
	u, wins, err := n.acquireOne(ctx, env)
	n.tally(env, wins)
	return u, err
}

// AcquireN implements Namer: k distinct names over one PRNG stream, or an
// error with every partially acquired name released. Distinctness needs no
// bookkeeping — each name is a TAS location this batch won.
func (n *namer) AcquireN(ctx context.Context, k int) ([]int, error) {
	if k < 1 {
		return nil, badConfig("", "AcquireN", fmt.Sprint(k), "need k >= 1")
	}
	if k > n.alg.Namespace() {
		// A batch larger than the namespace can never complete; fail before
		// allocating or probing anything (a caller-controlled k must not
		// size an allocation).
		return nil, fmt.Errorf("renaming: batch of %d exceeds namespace %d: %w",
			k, n.alg.Namespace(), ErrNamespaceExhausted)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, cancelled(ctx)
	}
	// One environment — hence one stream setup — serves the whole batch.
	env := n.env(ctx)
	names := make([]int, 0, k)
	wins := 0
	for len(names) < k {
		u, w, err := n.acquireOne(ctx, env)
		wins += w
		if err != nil {
			for _, v := range names {
				n.mem.TryReset(v)
			}
			n.tally(env, wins)
			return nil, fmt.Errorf("renaming: batch acquired %d of %d names: %w", len(names), k, err)
		}
		names = append(names, u)
	}
	n.tally(env, wins)
	return names, nil
}

// Namespace implements Namer.
func (n *namer) Namespace() int { return n.alg.Namespace() }

// Release implements Namer. The set→unset transition is a single CAS
// (tas.TryReset), so while the slot stays set, exactly one of any number
// of racing releases succeeds and the rest report ErrNotHeld — an IsSet
// check followed by a blind Reset would let several succeed. Note the
// limit of a token-less API: if a stale duplicate release arrives *after*
// the name has been re-acquired, the CAS cannot tell the new holder's slot
// from the old one and will free it. Callers that cannot rule out stale
// releases should layer package lease on top, whose fencing tokens reject
// them.
func (n *namer) Release(name int) error {
	if name < 0 || name >= n.alg.Namespace() {
		// A name outside the namespace is definitionally not held; wrapping
		// ErrNotHeld keeps every Release error inside the taxonomy.
		return fmt.Errorf("renaming: Release(%d): name outside [0,%d): %w",
			name, n.alg.Namespace(), ErrNotHeld)
	}
	if !n.mem.TryReset(name) {
		return ErrNotHeld
	}
	return nil
}

// Adopt marks a specific name as held, as if it had been acquired — the
// restart-recovery extension. A lease service replaying its durable state
// after a crash knows exactly which names were held and must re-seize those
// slots before serving new acquisitions, or a fresh Acquire could be granted
// a name that still has a live holder. Adopt performs the seizure as a
// single TAS on the named slot: it needs no occupancy bookkeeping to repair
// (the LevelArray's levels carry none — that is what makes its long-lived
// analysis hold under churn), so the adopted name behaves exactly like an
// acquired one, including Release. Adopting a name that is already held
// fails with an error matching ErrNameHeld; a name outside [0, Namespace())
// is rejected with ErrBadConfig.
func (n *namer) Adopt(name int) error {
	if name < 0 || name >= n.alg.Namespace() {
		return badConfig("", "Adopt", fmt.Sprint(name),
			fmt.Sprintf("name outside [0,%d)", n.alg.Namespace()))
	}
	// Not through an env: adoption is recovery bookkeeping, not a probe,
	// and must not perturb WithCounting's probe/win statistics.
	if !n.mem.TAS(name) {
		return fmt.Errorf("renaming: Adopt(%d): %w", name, ErrNameHeld)
	}
	return nil
}

// Probes returns the total number of TAS probes and the number of winning
// probes made by every Acquire and AcquireN that has returned; a call
// adds its own when it returns, whether it succeeded or not. It returns
// ok = false unless the namer was built with WithCounting.
func (n *namer) Probes() (ops, wins int64, ok bool) {
	return n.ops.Load(), n.wins.Load(), n.counting
}

// concurrentEnv implements core.Env over atomic shared memory. A non-nil
// ctx makes it core.Interruptible: algorithms poll Interrupted between
// probe batches and abandon the sequence once the context ends. It is a
// core.Batcher too, so a probe batch is one call with no dispatch inside.
// steps counts the call's TAS steps, batched or not. It is allocated once
// per Acquire; TestAcquireAllocs holds it to 64 bytes.
type concurrentEnv struct {
	nm    *namer
	rng   xrand.Rand
	ctx   context.Context // nil: non-cancellable
	steps int64
}

func (e *concurrentEnv) TAS(loc int) bool {
	e.steps++
	return e.nm.mem.TAS(loc)
}
func (e *concurrentEnv) Intn(n int) int { return e.rng.Intn(n) }
func (e *concurrentEnv) Interrupted() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// TryBatch implements core.Batcher: the batch is one call to
// tas.Dense.TryBatch, the kernel that keeps the stream's state in
// registers and returns core.NoName (-1) on a lost batch; its draws are
// the batch's TAS steps.
//
//renamed:noalloc
func (e *concurrentEnv) TryBatch(lo, size, t int) int {
	u, draws := e.nm.dense.TryBatch(&e.rng, lo, size, t)
	e.steps += int64(draws)
	return u
}

var (
	_ core.Interruptible = (*concurrentEnv)(nil)
	_ core.Batcher       = (*concurrentEnv)(nil)
)

// ReBatching is the non-adaptive namer (§4 of the paper). Create one with
// NewReBatching.
type ReBatching struct {
	*namer
}

// NewReBatching builds a namer for at most n concurrent participants with a
// namespace of size ceil((1+ε)n) (ε defaults to 1; see WithEpsilon).
func NewReBatching(n int, opts ...Option) (*ReBatching, error) {
	o, err := collectOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.checkApplicable("rebatching", optEpsilon, optBeta, optT0); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, badConfig("rebatching", "n", fmt.Sprint(n), "need n >= 1")
	}
	alg, err := core.NewReBatching(core.ReBatchingConfig{
		N:          n,
		Epsilon:    o.epsilon,
		Beta:       o.beta,
		T0Override: o.t0Override,
	})
	if err != nil {
		return nil, wrapConfig("rebatching", err)
	}
	return &ReBatching{namer: newNamer(alg, o)}, nil
}

// Adaptive is the adaptive namer (§5.1 of the paper). Create one with
// NewAdaptive.
type Adaptive struct {
	*namer
}

// NewAdaptive builds an adaptive namer supporting up to maxContention
// concurrent participants. With k <= maxContention actual participants,
// names are O(k) and each acquisition takes O((log log k)²) probes, w.h.p.
func NewAdaptive(maxContention int, opts ...Option) (*Adaptive, error) {
	o, err := collectOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.checkApplicable("adaptive", optEpsilon, optBeta, optT0); err != nil {
		return nil, err
	}
	if maxContention < 1 {
		return nil, badConfig("adaptive", "maxContention", fmt.Sprint(maxContention), "need maxContention >= 1")
	}
	alg, err := core.NewAdaptive(core.AdaptiveConfig{
		Epsilon:    o.epsilon,
		Beta:       o.beta,
		T0Override: o.t0Override,
		MaxLevel:   core.MaxLevelFor(maxContention),
	})
	if err != nil {
		return nil, wrapConfig("adaptive", err)
	}
	return &Adaptive{namer: newNamer(alg, o)}, nil
}

// FastAdaptive is the work-efficient adaptive namer (§5.2 of the paper).
// Create one with NewFastAdaptive.
type FastAdaptive struct {
	*namer
}

// NewFastAdaptive builds an adaptive namer with O(k log log k) total work
// for k participants, supporting up to maxContention concurrent callers.
// The paper fixes this algorithm's namespace slack at ε = 1, so WithEpsilon
// is rejected unless it restates ε = 1.
func NewFastAdaptive(maxContention int, opts ...Option) (*FastAdaptive, error) {
	o, err := collectOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.checkApplicable("fastadaptive", optEpsilon, optBeta, optT0); err != nil {
		return nil, err
	}
	if o.set[optEpsilon] && o.epsilon != 1 {
		return nil, badConfig("fastadaptive", optEpsilon, fmt.Sprint(o.epsilon),
			"the paper fixes epsilon = 1 for this algorithm")
	}
	if maxContention < 1 {
		return nil, badConfig("fastadaptive", "maxContention", fmt.Sprint(maxContention), "need maxContention >= 1")
	}
	alg, err := core.NewFastAdaptive(core.FastAdaptiveConfig{
		Beta:       o.beta,
		T0Override: o.t0Override,
		MaxLevel:   core.MaxLevelFor(maxContention),
	})
	if err != nil {
		return nil, wrapConfig("fastadaptive", err)
	}
	return &FastAdaptive{namer: newNamer(alg, o)}, nil
}

// wrapConfig converts an algorithm-layer construction error into the
// package's ErrBadConfig taxonomy while preserving its message.
func wrapConfig(namerName string, err error) error {
	return &ConfigError{Namer: namerName, Reason: err.Error()}
}

var (
	_ Namer = (*ReBatching)(nil)
	_ Namer = (*Adaptive)(nil)
	_ Namer = (*FastAdaptive)(nil)
)
