package namertest_test

import (
	"testing"

	renaming "repro"
	"repro/namertest"
)

// conformanceDSNs maps every name in renaming.Drivers() to the DSN the conformance
// suite runs it with. The t0=6 override on the ReBatching family keeps the
// exhaustion-path subtests fast (the paper's t₀ = 53 constant multiplies
// every probe sequence) without changing any semantics under test.
var conformanceDSNs = map[string]string{
	"rebatching":   "rebatching?n=48&seed=7&t0=6",
	"adaptive":     "adaptive?n=48&seed=7&t0=6",
	"fastadaptive": "fastadaptive?n=48&seed=7&t0=6",
	"levelarray":   "levelarray?n=48&seed=7",
	"uniform":      "uniform?n=48&seed=7",
	"linearscan":   "linearscan?n=48&seed=7",
}

// TestRegisteredNamersConformance runs the shared suite against every
// name in renaming.Drivers(). The driver table is the source of truth: a
// namer added to it fails this test until it gets a conformance DSN, so no
// driver ships unexercised.
func TestRegisteredNamersConformance(t *testing.T) {
	for _, name := range renaming.Drivers() {
		dsn, ok := conformanceDSNs[name]
		if !ok {
			t.Errorf("driver %q has no conformance DSN; add one to conformanceDSNs", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			namertest.Run(t, func() (renaming.Namer, error) {
				return renaming.Open(dsn)
			})
		})
	}
}

// TestResizableLevelArrayConformance runs the ResizableNamer extension
// suite against the levelarray driver — on top of, not instead of, the
// base suite, which TestRegisteredNamersConformance/levelarray runs over
// this same DSN: every LevelArray is elastic, so it must keep every
// static guarantee AND honour the dynamic-capacity contract.
func TestResizableLevelArrayConformance(t *testing.T) {
	dsn := conformanceDSNs["levelarray"]
	namertest.RunResizable(t, func() (renaming.ResizableNamer, error) {
		nm, err := renaming.Open(dsn)
		if err != nil {
			return nil, err
		}
		return nm.(renaming.ResizableNamer), nil
	})
}
