package renaming

import (
	"context"
	"errors"
	"fmt"
)

// The package's error taxonomy. Every error returned by a constructor,
// Open, Acquire, AcquireN or Release matches exactly one of these
// sentinels under errors.Is:
//
//   - ErrNamespaceExhausted — the namer has no free name to hand out.
//   - ErrCancelled — the caller's context ended mid-acquisition; wraps the
//     context's error, so errors.Is(err, context.Canceled) (or
//     DeadlineExceeded) also reports the cause.
//   - ErrNotHeld — Release of a name that is not currently assigned.
//   - ErrNameHeld — Adopt of a name that already has a holder.
//   - ErrBadConfig — a constructor option, argument or DSN parameter was
//     rejected; the concrete error is a *ConfigError carrying the namer,
//     the offending option and the reason.
var (
	// ErrNamespaceExhausted is returned by acquisitions when the namer
	// cannot assign a name because contention exceeded the configured
	// capacity.
	ErrNamespaceExhausted = errors.New("renaming: namespace exhausted (contention exceeded configured capacity)")

	// ErrNotHeld is returned by Release when the released name is not
	// currently assigned.
	ErrNotHeld = errors.New("renaming: name not currently held")

	// ErrNameHeld is returned by Adopt when the adopted name is already
	// assigned — the recovery-time dual of ErrNotHeld.
	ErrNameHeld = errors.New("renaming: name already held")

	// ErrCancelled is returned by Acquire and AcquireN when the context
	// ends before a name is secured. The returned error wraps both
	// ErrCancelled and ctx.Err(), and no TAS slot stays set on its behalf:
	// a probe sequence abandons before its next batch, and a slot won in
	// the race window after cancellation is handed straight back.
	ErrCancelled = errors.New("renaming: acquisition cancelled")

	// ErrBadConfig is the sentinel under every construction-time rejection:
	// invalid option values, options that do not apply to the constructed
	// namer, and malformed Open DSNs. The concrete error is a *ConfigError.
	ErrBadConfig = errors.New("renaming: bad configuration")
)

// ConfigError is the structured construction-time error: which namer
// rejected which option, the offending value, and why. It matches
// ErrBadConfig under errors.Is.
type ConfigError struct {
	// Namer is the constructor or DSN driver, e.g. "rebatching".
	// Empty when the rejection is not tied to one namer (a malformed DSN).
	Namer string
	// Option is the rejected option or DSN parameter, e.g. "WithLevelProbes"
	// or "eps".
	Option string
	// Value is the rejected value, rendered as a string ("" if absent).
	Value string
	// Reason says why the value was rejected.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	var b []byte
	b = append(b, "renaming: bad configuration"...)
	if e.Namer != "" {
		b = append(b, " for "...)
		b = append(b, e.Namer...)
	}
	if e.Option != "" {
		b = append(b, ": "...)
		b = append(b, e.Option...)
		if e.Value != "" {
			b = append(b, '(')
			b = append(b, e.Value...)
			b = append(b, ')')
		}
	}
	if e.Reason != "" {
		b = append(b, ": "...)
		b = append(b, e.Reason...)
	}
	return string(b)
}

// Unwrap makes errors.Is(err, ErrBadConfig) hold for every ConfigError.
func (e *ConfigError) Unwrap() error { return ErrBadConfig }

// badConfig is the constructor-side shorthand for a ConfigError.
func badConfig(namer, option, value, reason string) error {
	return &ConfigError{Namer: namer, Option: option, Value: value, Reason: reason}
}

// cancelled builds the ErrCancelled error for ctx, wrapping both the
// sentinel and the context's own error so callers can errors.Is either.
func cancelled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}
