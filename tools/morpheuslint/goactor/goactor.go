// Package goactor enforces the virtual clock's actor discipline: inside
// the packages threaded through the clock seam, a goroutine that touches
// clock-owned state (holds a clock.Clock, arms its timers, or reads raw
// wall time) must be spawned with clk.Go, which registers it as an actor
// in the run-token rotation. A raw `go` statement creates an unregistered
// goroutine: the virtual clock cannot see it park, so quiescence — the
// "all actors parked, nothing in flight" rule that gates every time jump
// — is computed without it, and the run either deadlocks (actor waits on
// a timer the frozen clock never fires) or, worse, stays live but
// schedules nondeterministically. Free-running goroutines that only shim
// channels (e.g. flowctl's context-merge helper) are fine and are not
// flagged: the analyzer only fires when the spawned body visibly touches
// clock state. The infrastructure that *implements* the actor protocol
// (the scheduler drain loop, the pool's workers, the vnet wall engine)
// annotates its spawns with //lint:goactor-ok and the reason it is
// allowed to sit below the seam.
package goactor

import (
	"go/ast"
	"go/types"

	"morpheus/tools/morpheuslint/analysis"
)

// scopePrefixes: packages threaded through the virtual clock. The clock
// package itself is the owner of the protocol and is exempt; netio and
// liverun are the wall-only live plane.
var scopePrefixes = []string{
	"morpheus/internal/appia",
	"morpheus/internal/group",
	"morpheus/internal/stack",
	"morpheus/internal/core",
	"morpheus/internal/mecho",
	"morpheus/internal/epidemic",
	"morpheus/internal/cocaditem",
	"morpheus/internal/fec",
	"morpheus/internal/transport",
	"morpheus/internal/experiment",
	"morpheus/internal/chaos",
	"morpheus/internal/flowctl",
	"morpheus/internal/vnet",
}

var Analyzer = &analysis.Analyzer{
	Name: "goactor",
	Doc:  "flags raw go statements that touch clock-owned state inside virtual-clock packages; actors must be spawned via clk.Go",
	Scope: func(path string) bool {
		return path == "morpheus" || analysis.ScopeUnder(scopePrefixes...)(path)
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	decls := analysis.EnclosingFuncs(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, decls, g.Call)
			if body == nil {
				return true
			}
			if why := touchesClockState(pass, body); why != "" {
				pass.Reportf(g.Pos(),
					"raw goroutine %s — under the virtual clock it is invisible to quiescence; spawn it as an actor with clk.Go, or annotate //lint:goactor-ok <reason> if it legitimately runs below the clock seam",
					why)
			}
			return true
		})
	}
	return nil
}

// spawnedBody resolves the body the go statement will run: a literal, or
// a same-package function/method declaration (one level deep).
func spawnedBody(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) ast.Node {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				return fd.Body
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				return fd.Body
			}
		}
	}
	return nil
}

// touchesClockState describes the first clock-owned touch in the body, or
// returns "".
func touchesClockState(pass *analysis.Pass, body ast.Node) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			// Raw wall time.
			if fn, ok := pass.Info.Uses[e.Sel].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && wallBanned[fn.Name()] {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					why = "calls time." + fn.Name() + " directly"
					return false
				}
			}
			// Clock method calls and clock-typed field reads: the
			// selector's base resolving to a clock-package type is the
			// giveaway (s.clock, clk.After, v.heap...).
			if tv, ok := pass.Info.Types[e.X]; ok && tv.IsValue() &&
				analysis.FromPackageNamed(tv.Type, "clock") {
				why = "touches clock-owned state (" + exprString(e) + ")"
				return false
			}
		case *ast.Ident:
			if obj := pass.Info.ObjectOf(e); obj != nil {
				if _, isVar := obj.(*types.Var); isVar && analysis.FromPackageNamed(obj.Type(), "clock") {
					why = "captures a clock-package value (" + e.Name + ")"
					return false
				}
			}
		}
		return true
	})
	return why
}

var wallBanned = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Since": true, "Tick": true,
}

func exprString(e *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
		return id.Name + "." + e.Sel.Name
	}
	return "…." + e.Sel.Name
}
