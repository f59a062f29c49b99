package renaming

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestOpenConstructsAllShippedNamers is the acceptance check: a DSN
// constructs every shipped namer, with tunables applied.
func TestOpenConstructsAllShippedNamers(t *testing.T) {
	cases := []struct {
		dsn      string
		wantType any
	}{
		{"rebatching?n=64&eps=0.5&beta=2&t0=6&seed=9", (*ReBatching)(nil)},
		{"adaptive?n=64&eps=0.5&t0=6", (*Adaptive)(nil)},
		{"fastadaptive?n=64&beta=3&seed=1", (*FastAdaptive)(nil)},
		{"levelarray?n=64&gamma=2&probes=3", (*LevelArray)(nil)},
		{"uniform?n=64&eps=1.5", (*Uniform)(nil)},
		{"linearscan?n=64", (*LinearScan)(nil)},
		{"levelarray?n=64&counting=true&seed=11", (*LevelArray)(nil)},
	}
	for _, tc := range cases {
		nm, err := Open(tc.dsn)
		if err != nil {
			t.Errorf("Open(%q): %v", tc.dsn, err)
			continue
		}
		if got, want := reflect.TypeOf(nm), reflect.TypeOf(tc.wantType); got != want {
			t.Errorf("Open(%q) = %v, want %v", tc.dsn, got, want)
			continue
		}
		u, err := nm.Acquire(context.Background())
		if err != nil {
			t.Errorf("Open(%q).Acquire: %v", tc.dsn, err)
			continue
		}
		if u < 0 || u >= nm.Namespace() {
			t.Errorf("Open(%q) name %d outside [0,%d)", tc.dsn, u, nm.Namespace())
		}
	}
}

// TestOpenAppliesParameters spot-checks that DSN parameters actually reach
// the constructed namer rather than being parsed and dropped.
func TestOpenAppliesParameters(t *testing.T) {
	// eps changes the ReBatching namespace: ceil((1+eps)n).
	tight, err := Open("rebatching?n=100&eps=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if tight.Namespace() != 125 {
		t.Errorf("eps=0.25 namespace = %d, want 125", tight.Namespace())
	}
	// counting wires the Probes() counters.
	counted, err := Open("levelarray?n=16&counting=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := counted.(*LevelArray).Probes(); !ok {
		t.Error("counting=1 did not enable Probes()")
	}
	// A long-lived DSN exposes its capacity.
	ll, err := Open("levelarray?n=37")
	if err != nil {
		t.Fatal(err)
	}
	if got := ll.(LongLivedNamer).Capacity(); got != 37 {
		t.Errorf("Capacity() = %d, want 37", got)
	}
	// seed determinism: same DSN, same sequential name sequence.
	seq := func(dsn string) []int {
		nm, err := Open(dsn)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 16)
		for i := range out {
			out[i], err = nm.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a := seq("rebatching?n=64&seed=5")
	b := seq("rebatching?n=64&seed=5")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed DSNs diverged: %v vs %v", a, b)
	}
}

// TestOpenRejections covers the DSN failure modes, all ErrBadConfig.
func TestOpenRejections(t *testing.T) {
	cases := []struct {
		name string
		dsn  string
	}{
		{"empty", ""},
		{"unknown driver", "quantum?n=64"},
		{"missing n", "rebatching"},
		{"missing n with params", "rebatching?eps=0.5"},
		{"malformed int", "rebatching?n=abc"},
		{"malformed float", "rebatching?n=64&eps=wide"},
		{"malformed bool", "levelarray?n=64&padded=perhaps"},
		{"malformed query", "rebatching?n=64&;bad=%zz"},
		{"unknown key", "rebatching?n=64&probez=3"},
		{"inapplicable key", "levelarray?n=64&eps=0.5"},
		{"padded levelarray", "levelarray?n=64&padded=true&counting=true&seed=11"},
		{"retired resizable key", "levelarray?n=64&resizable"},
		{"inapplicable t0", "uniform?n=64&t0=6"},
		{"eps on fastadaptive", "fastadaptive?n=64&eps=0.5"},
		{"invalid value", "rebatching?n=64&eps=-1"},
		{"zero n", "rebatching?n=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nm, err := Open(tc.dsn)
			if err == nil {
				t.Fatalf("Open(%q) accepted (%T)", tc.dsn, nm)
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Open(%q) err = %v, want ErrBadConfig", tc.dsn, err)
			}
		})
	}
}

// TestRegisterValidation pins the database/sql-style registration
// contract: empty names, nil drivers and duplicates panic.
func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { Register("", func(*Params) (Namer, error) { return nil, nil }) })
	mustPanic("nil driver", func() { Register("nil-driver", nil) })
	mustPanic("duplicate", func() { Register("rebatching", func(*Params) (Namer, error) { return nil, nil }) })
}

// TestDriversListsBuiltins keeps the registry's contents explicit.
func TestDriversListsBuiltins(t *testing.T) {
	want := []string{"adaptive", "fastadaptive", "levelarray", "linearscan", "rebatching", "uniform"}
	if got := Drivers(); !reflect.DeepEqual(got, want) {
		t.Errorf("Drivers() = %v, want %v", got, want)
	}
}
