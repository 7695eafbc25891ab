package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// Wallclock forbids wall-clock time and ambient randomness in
// deterministic packages. Simulated protocol code must take time from
// sim.Runner.Now/Schedule and randomness from sim.Runner.Rand; the
// package-level math/rand functions share a process-global source and
// time.Now leaks the host clock, either of which de-reproduces a run.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Sleep/... and global math/rand in deterministic packages",
	Run:  runWallclock,
}

// wallClockFuncs are the package time entry points that read or wait
// on the host clock: the one table behind wallclock (deterministic
// packages) and noblock (hot paths outside them). time.Duration
// arithmetic and constants, and methods on time.Time, stay legal
// (sim.Time converts through time.Duration).
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// isWallClock reports whether fn is one of those time functions.
func isWallClock(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
		fn.Type().(*types.Signature).Recv() == nil && wallClockFuncs[fn.Name()]
}

// allowedRandFuncs are math/rand constructors: building a locally
// seeded *rand.Rand is exactly what deterministic code should do.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runWallclock(p *Pass) {
	if !p.Cfg.IsDeterministic(p.Pkg.Path) {
		return
	}
	base := path.Base(p.Pkg.Path)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if _, ok := p.Pkg.Info.Uses[id].(*types.PkgName); !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true // a type or constant, e.g. rand.Rand
			}
			switch fn.Pkg().Path() {
			case "time":
				if isWallClock(fn) {
					p.Reportf(sel.Pos(),
						"wall-clock %s.%s in deterministic package %s; take time from the sim.Runner (Now/Schedule)",
						id.Name, sel.Sel.Name, base)
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[sel.Sel.Name] {
					p.Reportf(sel.Pos(),
						"global %s.%s in deterministic package %s; plumb a *rand.Rand from sim.Runner.Rand()",
						id.Name, sel.Sel.Name, base)
				}
			}
			return true
		})
	}
}
