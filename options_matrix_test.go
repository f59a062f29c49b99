package renaming

import (
	"errors"
	"fmt"
	"testing"
)

// TestOptionConstructorMatrix drives the full option × constructor matrix:
// every constructor must accept exactly its applicable options and reject
// every other one with ErrBadConfig, so a misapplied tunable can never be
// silently ignored.
func TestOptionConstructorMatrix(t *testing.T) {
	constructors := []struct {
		name string
		mk   func(opts ...Option) (Namer, error)
	}{
		{"rebatching", func(opts ...Option) (Namer, error) { return NewReBatching(16, opts...) }},
		{"adaptive", func(opts ...Option) (Namer, error) { return NewAdaptive(16, opts...) }},
		{"fastadaptive", func(opts ...Option) (Namer, error) { return NewFastAdaptive(16, opts...) }},
		{"levelarray", func(opts ...Option) (Namer, error) { return NewLevelArray(16, opts...) }},
		{"uniform", func(opts ...Option) (Namer, error) { return NewUniform(16, opts...) }},
		{"linearscan", func(opts ...Option) (Namer, error) { return NewLinearScan(16, opts...) }},
	}
	// For each option: a valid instance of it, and the set of constructors
	// that accept it. Everything else must reject it with ErrBadConfig.
	options := []struct {
		name       string
		opt        Option
		applicable map[string]bool
	}{
		{"WithEpsilon", WithEpsilon(0.5), map[string]bool{
			"rebatching": true, "adaptive": true, "uniform": true,
		}},
		{"WithEpsilon(1)", WithEpsilon(1), map[string]bool{
			// fastadaptive admits the option only when it restates the
			// paper's fixed ε = 1.
			"rebatching": true, "adaptive": true, "uniform": true, "fastadaptive": true,
		}},
		{"WithBeta", WithBeta(2), map[string]bool{
			"rebatching": true, "adaptive": true, "fastadaptive": true,
		}},
		{"WithT0Override", WithT0Override(6), map[string]bool{
			"rebatching": true, "adaptive": true, "fastadaptive": true,
		}},
		{"WithGamma", WithGamma(2), map[string]bool{
			"levelarray": true,
		}},
		{"WithLevelProbes", WithLevelProbes(3), map[string]bool{
			"levelarray": true,
		}},
		{"WithSeed", WithSeed(7), map[string]bool{
			"rebatching": true, "adaptive": true, "fastadaptive": true,
			"levelarray": true, "uniform": true, "linearscan": true,
		}},
		{"WithPaddedTAS", WithPaddedTAS(), map[string]bool{
			// levelarray's growable space is unpadded.
			"rebatching": true, "adaptive": true, "fastadaptive": true,
			"uniform": true, "linearscan": true,
		}},
		{"WithCounting", WithCounting(), map[string]bool{
			"rebatching": true, "adaptive": true, "fastadaptive": true,
			"levelarray": true, "uniform": true, "linearscan": true,
		}},
	}

	for _, opt := range options {
		for _, ctor := range constructors {
			t.Run(fmt.Sprintf("%s/%s", opt.name, ctor.name), func(t *testing.T) {
				nm, err := ctor.mk(opt.opt)
				if opt.applicable[ctor.name] {
					if err != nil {
						t.Fatalf("%s rejected applicable %s: %v", ctor.name, opt.name, err)
					}
					if nm == nil {
						t.Fatalf("%s returned nil namer", ctor.name)
					}
					return
				}
				if err == nil {
					t.Fatalf("%s silently accepted inapplicable %s", ctor.name, opt.name)
				}
				if !errors.Is(err, ErrBadConfig) {
					t.Fatalf("%s rejected %s with %v, want ErrBadConfig", ctor.name, opt.name, err)
				}
			})
		}
	}
}

// TestInapplicableOptionErrorIsStructured checks the ConfigError fields
// carry enough to tell the caller what to fix.
func TestInapplicableOptionErrorIsStructured(t *testing.T) {
	_, err := NewReBatching(16, WithLevelProbes(3))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *ConfigError", err, err)
	}
	if ce.Namer != "rebatching" || ce.Option != "WithLevelProbes" {
		t.Fatalf("ConfigError = %+v, want Namer=rebatching Option=WithLevelProbes", ce)
	}

	// Multiple inapplicable options are reported together.
	_, err = NewLinearScan(16, WithEpsilon(0.5), WithBeta(2))
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
	if ce.Option != "WithBeta, WithEpsilon" {
		t.Fatalf("ConfigError.Option = %q, want both offenders listed", ce.Option)
	}

	// Invalid option values carry the value.
	_, err = NewLevelArray(16, WithGamma(-1))
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
	if ce.Option != "WithGamma" || ce.Value != "-1" {
		t.Fatalf("ConfigError = %+v, want Option=WithGamma Value=-1", ce)
	}
}

// TestBadConfigTaxonomy pins errors.Is behaviour across the construction
// surface: option validation, constructor arguments and the fastadaptive
// epsilon special case all match ErrBadConfig.
func TestBadConfigTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"option value", func() error { _, err := NewReBatching(8, WithEpsilon(0)); return err }},
		{"constructor arg", func() error { _, err := NewReBatching(0); return err }},
		{"adaptive arg", func() error { _, err := NewAdaptive(0); return err }},
		{"levelarray arg", func() error { _, err := NewLevelArray(0); return err }},
		{"uniform arg", func() error { _, err := NewUniform(0); return err }},
		{"linearscan arg", func() error { _, err := NewLinearScan(0); return err }},
		{"fastadaptive eps", func() error { _, err := NewFastAdaptive(8, WithEpsilon(2)); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("configuration accepted")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}
