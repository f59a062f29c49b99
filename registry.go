package renaming

import (
	"errors"
	"maps"
	"net/url"
	"slices"
	"strconv"
	"strings"
)

// drivers maps the name a DSN leads with to the constructor it selects.
var drivers = map[string]func(n int, opts ...Option) (Namer, error){
	"rebatching":   func(n int, opts ...Option) (Namer, error) { return NewReBatching(n, opts...) },
	"adaptive":     func(n int, opts ...Option) (Namer, error) { return NewAdaptive(n, opts...) },
	"fastadaptive": func(n int, opts ...Option) (Namer, error) { return NewFastAdaptive(n, opts...) },
	"levelarray":   func(n int, opts ...Option) (Namer, error) { return NewLevelArray(n, opts...) },
	"uniform":      func(n int, opts ...Option) (Namer, error) { return NewUniform(n, opts...) },
	"linearscan":   func(n int, opts ...Option) (Namer, error) { return NewLinearScan(n, opts...) },
}

// dsnKeys maps every DSN key but n to the option it spells. An entry
// returns the option for value, a nil option when the value leaves the
// default in place (a false boolean), or why value is malformed.
var dsnKeys = map[string]func(value string) (Option, error){
	"eps":      dsnKey(parseFloat, "a number", WithEpsilon),
	"gamma":    dsnKey(parseFloat, "a number", WithGamma),
	"beta":     dsnKey(strconv.Atoi, "an integer", WithBeta),
	"t0":       dsnKey(strconv.Atoi, "an integer", WithT0Override),
	"probes":   dsnKey(strconv.Atoi, "an integer", WithLevelProbes),
	"seed":     dsnKey(parseUint, "an unsigned integer", WithSeed),
	"padded":   dsnKey(parseBool, "a boolean", whenTrue(WithPaddedTAS)),
	"counting": dsnKey(parseBool, "a boolean", whenTrue(WithCounting)),
}

func dsnKey[T any](parse func(string) (T, error), kind string, with func(T) Option) func(string) (Option, error) {
	return func(value string) (Option, error) {
		v, err := parse(value)
		if err != nil {
			return nil, errors.New("not " + kind)
		}
		return with(v), nil
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
func parseUint(s string) (uint64, error)   { return strconv.ParseUint(s, 10, 64) }

// parseBool reads a present key with an empty value ("...&padded&...") as
// true.
func parseBool(s string) (bool, error) {
	if s == "" {
		return true, nil
	}
	return strconv.ParseBool(s)
}

func whenTrue(with func() Option) func(bool) Option {
	return func(on bool) Option {
		if !on {
			return nil
		}
		return with()
	}
}

// Drivers returns the names Open accepts, sorted.
func Drivers() []string { return slices.Sorted(maps.Keys(drivers)) }

// Open constructs a Namer from a DSN of the form
//
//	driver?key=value&key=value
//
// for example "rebatching?n=1024&eps=0.5" or "levelarray?n=4096&probes=3".
// The driver name selects the constructor — rebatching, adaptive,
// fastadaptive, levelarray, uniform or linearscan — and n (required) is the
// capacity / maximum contention handed to it. Every other key spells one
// option:
//
//	eps       WithEpsilon
//	gamma     WithGamma
//	beta      WithBeta
//	t0        WithT0Override
//	probes    WithLevelProbes
//	seed      WithSeed
//	padded    WithPaddedTAS
//	counting  WithCounting
//
// Which option applies to which namer is the constructor's rule, the same
// for a DSN as for a direct call: "rebatching?n=64&gamma=2" fails exactly
// as NewReBatching(64, WithGamma(2)) does. Unknown drivers, unknown keys,
// keys given more than once and malformed values are likewise rejected
// with errors matching ErrBadConfig.
func Open(dsn string) (Namer, error) {
	name, rawQuery, _ := strings.Cut(dsn, "?")
	if name == "" {
		return nil, badConfig("", "dsn", dsn, "empty driver name")
	}
	construct, ok := drivers[name]
	if !ok {
		return nil, badConfig(name, "dsn", dsn, "unknown driver (have: "+strings.Join(Drivers(), ", ")+")")
	}
	values, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, badConfig(name, "dsn", dsn, "malformed query: "+err.Error())
	}
	var n int
	var opts []Option
	for _, key := range slices.Sorted(maps.Keys(values)) {
		vs := values[key]
		parse, known := dsnKeys[key]
		switch {
		case len(vs) > 1:
			return nil, badConfig(name, key, strings.Join(vs, ", "), "parameter given more than once")
		case key == "n":
			if n, err = strconv.Atoi(vs[0]); err != nil {
				return nil, badConfig(name, key, vs[0], "not an integer")
			}
		case !known:
			return nil, badConfig(name, key, "", "unknown parameter")
		default:
			opt, err := parse(vs[0])
			if err != nil {
				return nil, badConfig(name, key, vs[0], err.Error())
			}
			if opt != nil {
				opts = append(opts, opt)
			}
		}
	}
	if !values.Has("n") {
		return nil, badConfig(name, "n", "", "required parameter missing")
	}
	nm, err := construct(n, opts...)
	if err != nil {
		return nil, err // not nm: a constructor's nil pointer would make a non-nil Namer
	}
	return nm, nil
}
