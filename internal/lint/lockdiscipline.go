package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// LockDiscipline pins the PR-5 reclaim protocol in the lease engine:
// while a goroutine holds a stripe lock it must not call back into the
// namer (`Release` re-enters LevelArray CAS loops and once deadlocked
// the reclaim path), must not invoke Observer methods beyond the four
// sanctioned hooks (the persist journal runs inside them — anything
// else under the lock is new, unaudited critical-section work), and
// must not touch anything that can block on I/O. The sanctioned shape
// is the one lease.Manager uses everywhere: collect names under the
// lock, release them after Unlock (releaseNames documents "callers
// must NOT hold any stripe lock").
//
// Locked contexts are found three ways, all intra-package:
//
//   - functions named *Locked — the repo convention for "caller holds
//     the stripe lock";
//   - statements executed between a sync (R)Lock call and the
//     (R)Unlock that follows it, tracked through nested if/for/switch
//     bodies (an early-exit branch that unlocks ends the region for
//     the rest of that branch, so a hand-back after that Unlock is
//     legal);
//   - functions reachable through static same-package calls from
//     either of the above (transitive closure, reported with the call
//     chain).
//
// Function literals and `go` statements are skipped: work launched
// under the lock runs outside it.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "forbid namer re-entry, unsanctioned Observer hooks, and blocking I/O under a stripe lock",
	Run:  runLockDiscipline,
}

// sanctionedHooks are the four lease.Observer methods that are
// designed to run under the stripe lock.
var sanctionedHooks = map[string]bool{
	"ObserveAcquire": true,
	"ObserveRenew":   true,
	"ObserveRelease": true,
	"ObserveExpire":  true,
}

// blockingPkgs can block on I/O; nothing in them belongs under a
// stripe lock.
var blockingPkgs = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"syscall":  true,
}

func runLockDiscipline(pass *Pass) error {
	if !pass.InScope("repro/lease") {
		return nil
	}
	ld := &lockDiscipline{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				ld.decls[fn] = fd
			}
		}
	}

	// Seed contexts: *Locked functions (whole body) and explicit
	// lock...unlock regions in every function.
	for fn, fd := range ld.decls {
		if strings.HasSuffix(fn.Name(), "Locked") {
			ld.enqueue(fn, fn.Name())
			continue
		}
		for _, lc := range lockedCalls(pass, fd.Body) {
			ld.checkCall(lc.call, fmt.Sprintf("%s's %s.Lock() region", fn.Name(), lc.mutex))
		}
	}
	ld.drain()
	return nil
}

type lockDiscipline struct {
	pass    *Pass
	decls   map[*types.Func]*ast.FuncDecl
	visited map[*types.Func]bool
	queue   []queued
}

type queued struct {
	fn    *types.Func
	chain string
}

func (ld *lockDiscipline) enqueue(fn *types.Func, chain string) {
	if ld.visited == nil {
		ld.visited = map[*types.Func]bool{}
	}
	if ld.visited[fn] {
		return
	}
	ld.visited[fn] = true
	ld.queue = append(ld.queue, queued{fn: fn, chain: chain})
}

// drain processes the transitive closure: every enqueued function's
// whole body counts as a locked context.
func (ld *lockDiscipline) drain() {
	for len(ld.queue) > 0 {
		q := ld.queue[0]
		ld.queue = ld.queue[1:]
		body := ld.decls[q.fn].Body
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false // runs outside the caller's lock
			case *ast.CallExpr:
				ld.checkCall(n, q.chain)
			}
			return true
		})
	}
}

// checkCall flags a forbidden call made in a locked context and
// enqueues same-package callees, whose bodies then count as locked
// too. ctx names the locked context for the diagnostic.
func (ld *lockDiscipline) checkCall(call *ast.CallExpr, ctx string) {
	fn := calleeFunc(ld.pass, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	onInterface := sig.Recv() != nil && types.IsInterface(sig.Recv().Type())

	switch {
	case onInterface && fn.Name() == "Release":
		ld.pass.Reportf(call.Pos(),
			"namer Release called while holding a stripe lock (%s): collect names under the lock and release after Unlock, like releaseNames", ctx)
	case onInterface && strings.HasPrefix(fn.Name(), "Observe") && !sanctionedHooks[fn.Name()]:
		ld.pass.Reportf(call.Pos(),
			"unsanctioned Observer method %s called while holding a stripe lock (%s): only ObserveAcquire/ObserveRenew/ObserveRelease/ObserveExpire run under the lock", fn.Name(), ctx)
	case fn.Pkg() != nil && blockingPkgs[fn.Pkg().Path()]:
		ld.pass.Reportf(call.Pos(),
			"call to %s.%s can block on I/O while holding a stripe lock (%s)", fn.Pkg().Name(), fn.Name(), ctx)
	case fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		ld.pass.Reportf(call.Pos(),
			"time.Sleep while holding a stripe lock (%s)", ctx)
	case fn.Pkg() == ld.pass.Pkg:
		if _, ok := ld.decls[fn]; ok {
			ld.enqueue(fn, fmt.Sprintf("%s via %s", fn.Name(), ctx))
		}
	}
}

// lockedCall is one call expression executed while a mutex is held,
// with the receiver expression of the Lock call for diagnostics.
type lockedCall struct {
	call  *ast.CallExpr
	mutex string
}

// lockedCalls walks a function body tracking sync (R)Lock/(R)Unlock
// state through the statement structure and collects every call made
// while the state is locked. The tracking is branch-local and
// deliberately simple: a nested body (if/for/switch/select) inherits
// the lock state at entry, state changes inside it do not leak out,
// and the statement after it keeps the pre-branch state. That is exact
// for an early-exit branch — one that unlocks, does its work and
// returns — and no lease path relies on anything subtler: a branch that
// unlocks and falls through would leave the code after it counted as
// locked.
func lockedCalls(pass *Pass, body *ast.BlockStmt) []lockedCall {
	var out []lockedCall

	collect := func(n ast.Node, mutex string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.CallExpr:
				out = append(out, lockedCall{call: n, mutex: mutex})
			}
			return true
		})
	}

	// walkStmts threads lock state through one statement list and
	// returns the state at its end.
	var walkStmts func(list []ast.Stmt, locked bool, mutex string) (bool, string)
	var walkStmt func(stmt ast.Stmt, locked bool, mutex string) (bool, string)

	branch := func(stmt ast.Stmt, locked bool, mutex string) {
		// Nested bodies inherit the entry state; their exit state is
		// discarded (see doc comment above).
		if stmt != nil {
			walkStmt(stmt, locked, mutex)
		}
	}

	walkStmt = func(stmt ast.Stmt, locked bool, mutex string) (bool, string) {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			switch kind, m := syncCall(pass, s.X); kind {
			case "lock":
				return true, m
			case "unlock":
				return false, ""
			}
			if locked {
				collect(s, mutex)
			}
		case *ast.DeferStmt:
			if kind, _ := syncCall(pass, s.Call); kind == "unlock" {
				// defer mu.Unlock(): held until the function returns.
				return locked, mutex
			}
			if locked {
				collect(s, mutex)
			}
		case *ast.GoStmt:
			// The spawned goroutine does not hold this lock.
		case *ast.BlockStmt:
			// A bare block is straight-line code: state flows through.
			return walkStmts(s.List, locked, mutex)
		case *ast.IfStmt:
			if s.Init != nil && locked {
				collect(s.Init, mutex)
			}
			if locked {
				collect(s.Cond, mutex)
			}
			walkStmts(s.Body.List, locked, mutex)
			branch(s.Else, locked, mutex)
		case *ast.ForStmt:
			if locked {
				if s.Init != nil {
					collect(s.Init, mutex)
				}
				if s.Cond != nil {
					collect(s.Cond, mutex)
				}
				if s.Post != nil {
					collect(s.Post, mutex)
				}
			}
			walkStmts(s.Body.List, locked, mutex)
		case *ast.RangeStmt:
			if locked {
				collect(s.X, mutex)
			}
			walkStmts(s.Body.List, locked, mutex)
		case *ast.SwitchStmt:
			if locked && s.Tag != nil {
				collect(s.Tag, mutex)
			}
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					walkStmts(cc.Body, locked, mutex)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					walkStmts(cc.Body, locked, mutex)
				}
			}
		case *ast.SelectStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					walkStmts(cc.Body, locked, mutex)
				}
			}
		case *ast.LabeledStmt:
			return walkStmt(s.Stmt, locked, mutex)
		default:
			// Assignments, returns, sends, declarations, ...
			if locked {
				collect(stmt, mutex)
			}
		}
		return locked, mutex
	}

	walkStmts = func(list []ast.Stmt, locked bool, mutex string) (bool, string) {
		for _, stmt := range list {
			locked, mutex = walkStmt(stmt, locked, mutex)
		}
		return locked, mutex
	}

	walkStmts(body.List, false, "")
	return out
}

// syncCall classifies expr as a sync.Mutex/RWMutex lock or unlock call
// and names the receiver expression for diagnostics.
func syncCall(pass *Pass, expr ast.Expr) (kind, mutex string) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	name := ""
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name = exprString(sel.X)
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return "lock", name
	case "Unlock", "RUnlock":
		return "unlock", name
	}
	return "", ""
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	}
	return "mu"
}
