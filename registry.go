package renaming

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Driver constructs a Namer from parsed DSN parameters, in the style of
// database/sql drivers. Implementations read their parameters through the
// typed Params getters; Open rejects any parameter the driver did not read,
// so misspelled or misapplied keys fail loudly with ErrBadConfig.
type Driver func(p *Params) (Namer, error)

var (
	driversMu sync.RWMutex
	drivers   = map[string]Driver{}
)

// Register makes a namer driver available to Open under the given name.
// Like database/sql.Register it panics if the name is empty, the driver is
// nil, or the name is already taken — registration is an init-time,
// programmer-error surface.
func Register(name string, d Driver) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if name == "" {
		panic("renaming: Register with empty driver name")
	}
	if d == nil {
		panic("renaming: Register with nil driver")
	}
	if _, dup := drivers[name]; dup {
		panic("renaming: Register called twice for driver " + name)
	}
	drivers[name] = d
}

// Drivers returns the names of all registered drivers, sorted.
func Drivers() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	out := make([]string, 0, len(drivers))
	for name := range drivers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Open constructs a Namer from a DSN of the form
//
//	driver?key=value&key=value
//
// for example "rebatching?n=1024&eps=0.5" or "levelarray?n=4096&probes=3".
// The driver name selects the algorithm; the query parameters carry its
// tunables. Every shipped namer is registered:
//
//	rebatching    n (required), eps, beta, t0, seed, padded, counting
//	adaptive      n (required), eps, beta, t0, seed, padded, counting
//	fastadaptive  n (required), beta, t0, seed, padded, counting
//	levelarray    n (required), gamma, probes, seed, counting
//	uniform       n (required), eps, seed, padded, counting
//	linearscan    n (required), seed, padded, counting
//
// n is the capacity / maximum contention handed to the constructor; the
// remaining keys map 1:1 onto the With* options. Unknown drivers, unknown
// keys and malformed values are rejected with errors matching ErrBadConfig.
func Open(dsn string) (Namer, error) {
	name, rawQuery, _ := strings.Cut(dsn, "?")
	if name == "" {
		return nil, badConfig("", "dsn", dsn, "empty driver name")
	}
	driversMu.RLock()
	d, ok := drivers[name]
	driversMu.RUnlock()
	if !ok {
		return nil, badConfig(name, "dsn", dsn,
			fmt.Sprintf("unknown driver (registered: %s)", strings.Join(Drivers(), ", ")))
	}
	values, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, badConfig(name, "dsn", dsn, "malformed query: "+err.Error())
	}
	p := &Params{driver: name, values: values, used: map[string]bool{}}
	nm, err := d(p)
	if err != nil {
		return nil, err
	}
	if unused := p.unused(); len(unused) > 0 {
		return nil, badConfig(name, strings.Join(unused, ", "), "",
			"parameter does not apply to this namer")
	}
	return nm, nil
}

// Params is the typed view of a DSN's query parameters handed to a Driver.
// Getters record which keys were read so Open can reject leftovers.
type Params struct {
	driver string
	values url.Values
	used   map[string]bool
}

// Driver returns the driver name the DSN selected.
func (p *Params) Driver() string { return p.driver }

// Has reports whether key is present (and marks it read).
func (p *Params) Has(key string) bool {
	p.used[key] = true
	_, ok := p.values[key]
	return ok
}

// raw returns the key's value and presence, marking it read.
func (p *Params) raw(key string) (string, bool) {
	p.used[key] = true
	if vs, ok := p.values[key]; ok && len(vs) > 0 {
		return vs[0], true
	}
	return "", false
}

// Int returns key as an int, or def when absent.
func (p *Params) Int(key string, def int) (int, error) {
	s, ok := p.raw(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badConfig(p.driver, key, s, "not an integer")
	}
	return v, nil
}

// RequiredInt returns key as an int, failing when absent.
func (p *Params) RequiredInt(key string) (int, error) {
	if _, ok := p.raw(key); !ok {
		return 0, badConfig(p.driver, key, "", "required parameter missing")
	}
	return p.Int(key, 0)
}

// Float returns key as a float64, or def when absent.
func (p *Params) Float(key string, def float64) (float64, error) {
	s, ok := p.raw(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, badConfig(p.driver, key, s, "not a number")
	}
	return v, nil
}

// Uint64 returns key as a uint64, or def when absent.
func (p *Params) Uint64(key string, def uint64) (uint64, error) {
	s, ok := p.raw(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, badConfig(p.driver, key, s, "not an unsigned integer")
	}
	return v, nil
}

// Bool returns key as a bool, or def when absent. A present key with an
// empty value ("...&padded&...") reads as true.
func (p *Params) Bool(key string, def bool) (bool, error) {
	s, ok := p.raw(key)
	if !ok {
		return def, nil
	}
	if s == "" {
		return true, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, badConfig(p.driver, key, s, "not a boolean")
	}
	return v, nil
}

// unused returns the present keys no getter read, sorted.
func (p *Params) unused() []string {
	var out []string
	for key := range p.values {
		if !p.used[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// commonOptions collects the universal driver parameters (seed, padded,
// counting) shared by every registered namer.
func (p *Params) commonOptions() ([]Option, error) {
	var opts []Option
	if p.Has("seed") {
		seed, err := p.Uint64("seed", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithSeed(seed))
	}
	if padded, err := p.Bool("padded", false); err != nil {
		return nil, err
	} else if padded {
		opts = append(opts, WithPaddedTAS())
	}
	if counting, err := p.Bool("counting", false); err != nil {
		return nil, err
	} else if counting {
		opts = append(opts, WithCounting())
	}
	return opts, nil
}

// oneShotParams parses the parameter set shared by the ReBatching family:
// eps (unless fixed by the algorithm), beta and t0.
func (p *Params) oneShotParams(withEps bool) ([]Option, error) {
	opts, err := p.commonOptions()
	if err != nil {
		return nil, err
	}
	if withEps && p.Has("eps") {
		eps, err := p.Float("eps", 1)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithEpsilon(eps))
	}
	if p.Has("beta") {
		beta, err := p.Int("beta", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithBeta(beta))
	}
	if p.Has("t0") {
		t0, err := p.Int("t0", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithT0Override(t0))
	}
	return opts, nil
}

func init() {
	Register("rebatching", func(p *Params) (Namer, error) {
		n, err := p.RequiredInt("n")
		if err != nil {
			return nil, err
		}
		opts, err := p.oneShotParams(true)
		if err != nil {
			return nil, err
		}
		return NewReBatching(n, opts...)
	})
	Register("adaptive", func(p *Params) (Namer, error) {
		n, err := p.RequiredInt("n")
		if err != nil {
			return nil, err
		}
		opts, err := p.oneShotParams(true)
		if err != nil {
			return nil, err
		}
		return NewAdaptive(n, opts...)
	})
	Register("fastadaptive", func(p *Params) (Namer, error) {
		n, err := p.RequiredInt("n")
		if err != nil {
			return nil, err
		}
		opts, err := p.oneShotParams(false)
		if err != nil {
			return nil, err
		}
		return NewFastAdaptive(n, opts...)
	})
	Register("levelarray", func(p *Params) (Namer, error) {
		n, err := p.RequiredInt("n")
		if err != nil {
			return nil, err
		}
		opts, err := p.commonOptions()
		if err != nil {
			return nil, err
		}
		if p.Has("gamma") {
			gamma, err := p.Float("gamma", 1)
			if err != nil {
				return nil, err
			}
			opts = append(opts, WithGamma(gamma))
		}
		if p.Has("probes") {
			probes, err := p.Int("probes", 0)
			if err != nil {
				return nil, err
			}
			opts = append(opts, WithLevelProbes(probes))
		}
		return NewLevelArray(n, opts...)
	})
	Register("uniform", func(p *Params) (Namer, error) {
		n, err := p.RequiredInt("n")
		if err != nil {
			return nil, err
		}
		opts, err := p.commonOptions()
		if err != nil {
			return nil, err
		}
		if p.Has("eps") {
			eps, err := p.Float("eps", 1)
			if err != nil {
				return nil, err
			}
			opts = append(opts, WithEpsilon(eps))
		}
		return NewUniform(n, opts...)
	})
	Register("linearscan", func(p *Params) (Namer, error) {
		n, err := p.RequiredInt("n")
		if err != nil {
			return nil, err
		}
		opts, err := p.commonOptions()
		if err != nil {
			return nil, err
		}
		return NewLinearScan(n, opts...)
	})
}
