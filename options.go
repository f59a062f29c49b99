package renaming

import (
	"fmt"
	"sort"
	"strings"
)

// options collects the tunables shared by all namers, plus the record of
// which options the caller actually set — constructors use it to reject
// options that do not apply to them (ErrBadConfig) instead of silently
// ignoring them.
type options struct {
	epsilon     float64
	beta        int
	t0Override  int
	seed        uint64
	padded      bool
	counting    bool
	levelProbes int
	gamma       float64

	// set records which options were applied, by option name: the single
	// source of truth for both "was it set" checks (e.g. fastadaptive's
	// ε = 1 rule) and constructor applicability validation.
	set map[string]bool
}

func defaultOptions() options {
	return options{
		epsilon: 1,
		gamma:   1,
		seed:    0x6c6f6f73652d7265, // "loose-re", an arbitrary fixed default
		set:     map[string]bool{},
	}
}

// Option configures a namer constructor.
type Option interface {
	apply(*options) error
}

type optionFunc struct {
	name string
	fn   func(*options) error
}

func (f optionFunc) apply(o *options) error {
	if err := f.fn(o); err != nil {
		return err
	}
	o.set[f.name] = true
	return nil
}

// Option names, used both in applicability sets and error messages.
const (
	optEpsilon     = "WithEpsilon"
	optBeta        = "WithBeta"
	optT0          = "WithT0Override"
	optSeed        = "WithSeed"
	optLevelProbes = "WithLevelProbes"
	optGamma       = "WithGamma"
	optPadded      = "WithPaddedTAS"
	optCounting    = "WithCounting"
)

// universalOptions apply to every namer: they tune the concurrent driver
// (randomness, memory layout, instrumentation), not the algorithm.
var universalOptions = map[string]bool{
	optSeed:     true,
	optPadded:   true,
	optCounting: true,
}

// checkApplicable rejects any set option that is neither universal nor in
// the constructor's allowed list. Constructors call it right after
// collectOptions, so misapplied tunables fail loudly at construction time
// (e.g. WithLevelProbes on ReBatching, WithEpsilon on LevelArray) instead
// of being silently ignored.
func (o *options) checkApplicable(namer string, allowed ...string) error {
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	var bad []string
	for name := range o.set {
		if !universalOptions[name] && !ok[name] {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return badConfig(namer, strings.Join(bad, ", "), "",
		"option does not apply to this namer")
}

// WithEpsilon sets the namespace slack ε > 0: ReBatching, Adaptive and
// Uniform use namespaces of size ceil((1+ε)n). Smaller ε means tighter
// namespaces and more probes (Eq. 2's t₀ grows like ln(1/ε)/ε). Default 1.
// FastAdaptive accepts only ε = 1 (the paper fixes it); LevelArray's
// per-level slack is the separate WithGamma.
func WithEpsilon(eps float64) Option {
	return optionFunc{optEpsilon, func(o *options) error {
		if !(eps > 0) {
			return badConfig("", optEpsilon, fmt.Sprint(eps), "need eps > 0")
		}
		o.epsilon = eps
		return nil
	}}
}

// WithBeta sets the probe count β >= 1 on the last batch; larger β raises
// the "with high probability" exponent of the step-complexity guarantee
// (Theorem 4.1: β >= 2 bounds the expected step complexity, β >= 3 the
// expected total work). Default 3. Applies to the ReBatching family only.
func WithBeta(beta int) Option {
	return optionFunc{optBeta, func(o *options) error {
		if beta < 1 {
			return badConfig("", optBeta, fmt.Sprint(beta), "need beta >= 1")
		}
		o.beta = beta
		return nil
	}}
}

// WithT0Override replaces the paper's batch-0 probe count
// t₀ = ceil(17·ln(8e/ε)/ε) — 53 probes at ε = 1 — with a custom value.
// The paper's constant is calibrated for worst-case adversarial schedules;
// under realistic scheduling a t₀ of 4-8 preserves the log log n shape and
// dramatically lowers the additive constant (see EXPERIMENTS.md F2).
// Applies to the ReBatching family only.
func WithT0Override(t0 int) Option {
	return optionFunc{optT0, func(o *options) error {
		if t0 < 1 {
			return badConfig("", optT0, fmt.Sprint(t0), "need t0 >= 1")
		}
		o.t0Override = t0
		return nil
	}}
}

// WithSeed fixes the seed behind every caller's probe randomness, making
// name assignment reproducible for a fixed schedule (useful in tests).
// Applies to every namer.
func WithSeed(seed uint64) Option {
	return optionFunc{optSeed, func(o *options) error {
		o.seed = seed
		return nil
	}}
}

// WithLevelProbes sets the number of random probes LevelArray performs per
// level before descending (default 2). More probes per level keep callers
// in the large top levels longer, trading a slightly higher expected probe
// count for a smaller chance of reaching the backup scan. Applies to
// NewLevelArray only.
func WithLevelProbes(t int) Option {
	return optionFunc{optLevelProbes, func(o *options) error {
		if t < 1 {
			return badConfig("", optLevelProbes, fmt.Sprint(t), "need t >= 1")
		}
		o.levelProbes = t
		return nil
	}}
}

// WithGamma sets LevelArray's per-level slack γ > 0: level i holds
// ceil((1+γ)N/2^i) slots, so larger γ means fewer probes and more space.
// Default 1. Applies to NewLevelArray only (the one-shot family's namespace
// slack is the distinct WithEpsilon).
func WithGamma(gamma float64) Option {
	return optionFunc{optGamma, func(o *options) error {
		if !(gamma > 0) {
			return badConfig("", optGamma, fmt.Sprint(gamma), "need gamma > 0")
		}
		o.gamma = gamma
		return nil
	}}
}

// WithPaddedTAS places each TAS object on its own cache line (64 bytes
// instead of 4 per name), eliminating false sharing between adjacent names
// under heavy multicore contention. See the F4 ablation for measurements.
// Applies to every namer but LevelArray, whose growable space is unpadded.
func WithPaddedTAS() Option {
	return optionFunc{optPadded, func(o *options) error {
		o.padded = true
		return nil
	}}
}

// WithCounting instruments the namer with probe/win counters, readable via
// the Probes method. Adds two atomic increments per probe. Applies to
// every namer.
func WithCounting() Option {
	return optionFunc{optCounting, func(o *options) error {
		o.counting = true
		return nil
	}}
}

func collectOptions(opts []Option) (options, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if err := opt.apply(&o); err != nil {
			return options{}, err
		}
	}
	return o, nil
}
