package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tas"
	"repro/internal/xrand"
)

// seqEnv is a minimal sequential Env for driving single GetName calls.
type seqEnv struct {
	space tas.Space
	rng   *xrand.Rand
}

func (e *seqEnv) TAS(loc int) bool { return e.space.TAS(loc) }
func (e *seqEnv) Intn(n int) int   { return e.rng.Intn(n) }

// fillAllBut sets every location of a dense space except `free`.
func fillAllBut(space *tas.Dense, free int) {
	for i := 0; i < space.Len(); i++ {
		if i != free {
			space.TAS(i)
		}
	}
}

func TestUniformScanFallbackFindsLastSlot(t *testing.T) {
	// One free slot and a probe cap of 1: the random probe almost surely
	// misses, so the scan fallback must find the slot deterministically.
	u := MustUniform(16, 0.5, 1)
	space := tas.NewDense(u.Namespace())
	free := u.Namespace() - 1
	fillAllBut(space, free)
	env := &seqEnv{space: space, rng: xrand.New(3)}
	if got := u.GetName(env); got != free {
		t.Fatalf("GetName = %d, want %d", got, free)
	}
}

func TestUniformReturnsNoNameWhenFull(t *testing.T) {
	u := MustUniform(4, 0.5, 1)
	space := tas.NewDense(u.Namespace())
	for i := 0; i < u.Namespace(); i++ {
		space.TAS(i)
	}
	env := &seqEnv{space: space, rng: xrand.New(1)}
	if got := u.GetName(env); got != core.NoName {
		t.Fatalf("GetName on full space = %d, want NoName", got)
	}
}

func TestLinearScanReturnsNoNameWhenFull(t *testing.T) {
	l := MustLinearScan(4)
	space := tas.NewDense(4)
	for i := 0; i < 4; i++ {
		space.TAS(i)
	}
	env := &seqEnv{space: space, rng: xrand.New(1)}
	if got := l.GetName(env); got != core.NoName {
		t.Fatalf("GetName on full space = %d, want NoName", got)
	}
}

func TestSegScanFallbackFindsLastSlot(t *testing.T) {
	s := MustSegScan(32, 0.5, 4)
	space := tas.NewDense(s.Namespace())
	free := s.Namespace() - 1
	fillAllBut(space, free)
	env := &seqEnv{space: space, rng: xrand.New(7)}
	if got := s.GetName(env); got != free {
		t.Fatalf("GetName = %d, want %d", got, free)
	}
}

func TestSegScanReturnsNoNameWhenFull(t *testing.T) {
	s := MustSegScan(8, 0.5, 2)
	space := tas.NewDense(s.Namespace())
	for i := 0; i < s.Namespace(); i++ {
		space.TAS(i)
	}
	env := &seqEnv{space: space, rng: xrand.New(2)}
	if got := s.GetName(env); got != core.NoName {
		t.Fatalf("GetName on full space = %d, want NoName", got)
	}
}

func TestMustConstructorsPanicOnBadInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"uniform", func() { MustUniform(0, 1, 0) }},
		{"linscan", func() { MustLinearScan(0) }},
		{"segscan", func() { MustSegScan(0, 1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}
