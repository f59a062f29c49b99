package core

// Cancelled is returned by renaming attempts that were abandoned because
// the environment reported an interrupt mid-probe-sequence (see
// Interruptible). Unlike NoName it does not mean the probe budget was
// exhausted — the process simply stopped probing. Drivers map it to their
// cancellation error; the lock-step simulator never produces it.
const Cancelled = -2

// Interruptible is an optional extension of Env for drivers that can
// cancel a renaming attempt while it is running (the concurrent driver
// threads a context through it). Algorithms poll Interrupted between probe
// batches/levels — never inside a constant-size probe set — and return
// Cancelled instead of starting the next batch, so an interrupt costs at
// most one batch of extra probes and never abandons a won TAS slot:
// either the process stops before probing (nothing held) or it already won
// a slot (and returns it as usual, leaving release policy to the driver).
type Interruptible interface {
	Env
	// Interrupted reports whether the probe sequence should be abandoned.
	Interrupted() bool
}

// Interrupted reports whether env requests cancellation. Plain Envs (the
// simulator, non-cancellable drivers) are never interrupted.
func Interrupted(env Env) bool {
	i, ok := env.(Interruptible)
	return ok && i.Interrupted()
}

// InterruptStride is how many sequential backup-scan probes an algorithm
// performs between Interrupted polls. Backup scans are O(namespace), so
// they poll periodically; batch/level loops poll on every boundary.
const InterruptStride = 256

// Batcher is an optional extension of Env for drivers that run a whole
// probe batch themselves. A Batcher's TryBatch must match the reference
// loop of the TryBatch function below: t probes, each Intn(size) then
// TAS(lo+x), in that order, stopping at the first win — the same draws,
// the same TAS steps and the same result.
//
// The concurrent driver is a Batcher, and its batch loop lives in
// internal/tas: tas.Dense.TryBatch runs the batch with the PRNG state in
// registers and no call per probe, and reports its draws, which the
// driver counts as the batch's TAS steps.
//
// An Env that wraps another to intercept TAS — to count, trace or
// redirect steps — must not forward TryBatch, or the batch's probes would
// bypass it.
type Batcher interface {
	Env
	// TryBatch makes at most t uniform probes into [lo, lo+size) and
	// returns the first location won, or NoName.
	TryBatch(lo, size, t int) int
}

// TryBatch makes at most t uniform probes into [lo, lo+size) inside env
// and returns the first location won, or NoName. A Batcher runs the loop
// itself; any other Env runs the reference loop, one Intn and one TAS
// step per probe, which is how the simulator counts every step.
func TryBatch(env Env, lo, size, t int) int {
	if b, ok := env.(Batcher); ok {
		return b.TryBatch(lo, size, t)
	}
	for j := 0; j < t; j++ {
		x := env.Intn(size)
		if env.TAS(lo + x) {
			return lo + x
		}
	}
	return NoName
}
