package lint

import (
	"go/ast"
	"go/types"
)

// Determinism pins the PR-8 chaos contract: packages whose behavior
// must replay bit-for-bit from a seed (the chaos harness itself, the
// session client it drives, the lease engine under test, and the
// experiment harness with its simulator and lower-bound gadget) draw time
// and randomness through injected fields — leaseclient.Config.Now/
// Rand, lease.Config.Now, chaos's rng(seed, label) streams — never
// through the process globals. A direct time.Now in a heartbeat path
// or a global rand draw in a fault schedule silently unpins every
// seed-reproducibility claim cmd/chaos prints.
//
// Flagged, as calls (bare references like `cfg.Now = time.Now` are the
// injection idiom and stay legal):
//
//   - time.Now, time.Since, time.Until — absolute wall-clock reads
//   - package-level math/rand and math/rand/v2 draws (rand.Uint64,
//     rand.Float64, ...) — the global source; constructing an owned
//     source (rand.New, rand.NewPCG, ...) is the sanctioned fix
//
// Escape hatch: //lint:wallclock <justification> on the call line, the
// line above, or the enclosing function's doc comment. The
// justification is mandatory — wall-clock use is legal only where it
// is an explicit design decision (net deadlines, the chaos checker's
// unskewed observer clock) and the annotation is where that decision
// is recorded.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock and global-rand calls in seed-reproducible packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !pass.InScope("repro/internal/chaos", "repro/leaseclient", "repro/lease",
		"repro/internal/harness", "repro/internal/sim", "repro/internal/lowerbound") {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			var what string
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					what = "wall-clock read time." + fn.Name()
				}
			case "math/rand", "math/rand/v2":
				// Only package-level draws hit the global source;
				// constructors build an owned, seedable source.
				if fn.Type().(*types.Signature).Recv() == nil && !randConstructor(fn.Name()) {
					what = "global rand draw " + fn.Pkg().Name() + "." + fn.Name()
				}
			}
			if what == "" {
				return true
			}
			wc := wallclockAt(pass, file, call.Pos())
			if wc.found {
				if wc.justification == "" {
					pass.Reportf(call.Pos(), "lint:wallclock requires a justification string")
				}
				return true
			}
			pass.Reportf(call.Pos(),
				"%s in a seed-reproducible package: use the injected clock/rand (Config.Now, Config.Rand, rng(seed, label)) or annotate //lint:wallclock <why>",
				what)
			return true
		})
	}
	return nil
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil for indirect calls through function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

func randConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
		return true
	}
	return false
}
