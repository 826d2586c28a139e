// Package wallclock flags direct use of the time package's clock and
// timer functions. Every timer-driven layer of the runtime must take the
// clock.Clock seam (internal/clock) instead: that seam is what makes
// whole experiments bit-reproducible under the virtual clock, and one raw
// time.AfterFunc in a protocol layer silently punches a wall-time hole in
// the deterministic plane that only shows up — hours later — as a golden
// hash flake. Legitimately wall-only sites (the wall Clock implementation
// itself, live-plane commands and demos) carry a //lint:wallclock-ok
// <reason> directive, which the driver verifies is justified and still
// needed.
package wallclock

import (
	"go/ast"
	"go/types"

	"morpheus/tools/morpheuslint/analysis"
)

// Banned are the time-package functions that bypass the seam. Duration
// arithmetic, time.Time formatting, time.Unix etc. remain free: they are
// pure values, not clock reads or timer registrations.
var Banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Tick":      true,
}

var Analyzer = &analysis.Analyzer{
	Name:  "wallclock",
	Doc:   "flags direct time.Now/Sleep/After/... calls that bypass the clock.Clock seam",
	Scope: func(string) bool { return true },
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !Banned[fn.Name()] {
				return true
			}
			// Methods like (time.Time).After are pure value arithmetic,
			// not clock reads; only package-level functions are banned.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			pass.Reportf(sel.Pos(),
				"direct time.%s bypasses the deterministic time plane; thread a clock.Clock (internal/clock) through this path, or annotate the line with //lint:wallclock-ok <reason> if it is genuinely wall-only",
				fn.Name())
			return true
		})
	}
	return nil
}
