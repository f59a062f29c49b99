package renaming

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
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
		{"repeated n", "rebatching?n=64&n=4096"},
		{"repeated key", "rebatching?n=64&eps=1&eps=0.25"},
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

// TestOpenRejectsLikeConstructor: the constructor decides which option
// applies to which namer, so a misapplied DSN key fails with the very
// error the direct call returns.
func TestOpenRejectsLikeConstructor(t *testing.T) {
	_, dsnErr := Open("rebatching?n=64&gamma=2")
	_, callErr := NewReBatching(64, WithGamma(2))
	var fromDSN, fromCall *ConfigError
	if !errors.As(dsnErr, &fromDSN) || !errors.As(callErr, &fromCall) {
		t.Fatalf("errors = %v / %v, want *ConfigError from both", dsnErr, callErr)
	}
	if *fromDSN != *fromCall {
		t.Fatalf("Open: %+v, NewReBatching: %+v", *fromDSN, *fromCall)
	}
}

// TestOpenKeyTableCoversOptions keeps the three spellings of the key set
// in step: every opt* name in options.go is reached by exactly one dsnKeys
// entry, and the table in Open's doc comment lists those pairs.
func TestOpenKeyTableCoversOptions(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(file string) *ast.File {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	unreached := map[string]bool{}
	ast.Inspect(parse("options.go"), func(n ast.Node) bool {
		if spec, ok := n.(*ast.ValueSpec); ok && strings.HasPrefix(spec.Names[0].Name, "opt") && len(spec.Values) == 1 {
			if lit, ok := spec.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				unreached[name] = true
			}
		}
		return true
	})
	if len(unreached) == 0 {
		t.Fatal("found no opt* constants in options.go")
	}
	var table []string
	for key, parseValue := range dsnKeys {
		opt, err := parseValue("1") // a valid value of every key's type
		if err != nil || opt == nil {
			t.Fatalf("dsnKeys[%q](\"1\") = %v, %v", key, opt, err)
		}
		name := opt.(optionFunc).name
		if !unreached[name] {
			t.Errorf("key %q spells %s, which is no opt* name or already has a key", key, name)
		}
		delete(unreached, name)
		table = append(table, key+" "+name)
	}
	for name := range unreached {
		t.Errorf("%s has no DSN key", name)
	}
	var documented []string
	for _, decl := range parse("registry.go").Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "Open" {
			for _, line := range strings.Split(fn.Doc.Text(), "\n") {
				if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[1], "With") {
					documented = append(documented, f[0]+" "+f[1])
				}
			}
		}
	}
	sort.Strings(table)
	sort.Strings(documented)
	if !reflect.DeepEqual(documented, table) {
		t.Errorf("Open's doc comment lists %v, dsnKeys is %v", documented, table)
	}
}

// TestDriversListsBuiltins keeps the driver table's contents explicit.
func TestDriversListsBuiltins(t *testing.T) {
	want := []string{"adaptive", "fastadaptive", "levelarray", "linearscan", "rebatching", "uniform"}
	if got := Drivers(); !reflect.DeepEqual(got, want) {
		t.Errorf("Drivers() = %v, want %v", got, want)
	}
}
