package analysis

// noblock enforces the hotpath scheduling contract: functions in the
// //taq:hotpath closure must never block or yield — no channel ops, no
// select, no goroutine launches, no sync lock acquisitions, no
// wall-clock reads or syscalls. The emu engine deliberately serializes
// real-time callbacks through one mutex; its Engine methods are
// allowlisted via Config.NoblockAllow so the finding set stays
// actionable (lockdiscipline already checks that pattern's pairing).
// Wall-clock calls come from wallclock's table; in a deterministic
// package they are wallclock's findings, so noblock reports them only
// outside that set (emu).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoBlock flags blocking operations in hotpath-closure functions.
var NoBlock = &Analyzer{
	Name: "noblock",
	Doc:  "//taq:hotpath closure functions must not block (channels, select, sync locks, time.Now, syscalls)",
	Run:  runNoBlock,
}

// blockingSyncMethods are the sync methods that can park a goroutine.
var blockingSyncMethods = map[string]bool{
	"Lock": true, "RLock": true, "Wait": true, "Do": true,
}

func runNoBlock(pass *Pass) {
	if pass.Prog == nil || !pass.Cfg.IsNoblockChecked(pass.Pkg.Path) {
		return
	}
	for _, n := range pass.Prog.HotNodes() {
		if n.Pkg != pass.Pkg || pass.Cfg.NoblockAllowed(n.Name()) {
			continue
		}
		checkNoBlock(pass, n)
	}
}

func checkNoBlock(pass *Pass, n *FuncNode) {
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false // the literal's body is its own node
		case *ast.SendStmt:
			hotf(pass, n, x.Pos(), "channel send may block")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				hotf(pass, n, x.Pos(), "channel receive may block")
			}
		case *ast.SelectStmt:
			hotf(pass, n, x.Pos(), "select may block")
		case *ast.GoStmt:
			hotf(pass, n, x.Pos(), "go statement hands work to the scheduler")
		case *ast.RangeStmt:
			if _, ok := underlyingOf(info, x.X).(*types.Chan); ok {
				hotf(pass, n, x.Pos(), "range over channel blocks")
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, n, x)
		}
		return true
	})
}

func checkBlockingCall(pass *Pass, n *FuncNode, call *ast.CallExpr) {
	callee, _ := calleeObj(n.Pkg.Info, call.Fun).(*types.Func)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	name := callee.Name()
	switch callee.Pkg().Path() {
	case "sync":
		if blockingSyncMethods[name] {
			hotf(pass, n, call.Pos(), "sync acquisition %s may block", exprString(call))
		}
	case "time":
		// In a deterministic package a wall-clock call is wallclock's
		// finding, which a //taq:allow(func) noblock must not silence.
		if isWallClock(callee) && !pass.Cfg.IsDeterministic(pass.Pkg.Path) {
			hotf(pass, n, call.Pos(), "wall-clock call %s", exprString(call))
		}
	case "os", "syscall", "net":
		hotf(pass, n, call.Pos(), "%s performs a syscall", exprString(call))
	case "io":
		// io's own interface methods (Writer.Write etc.) reach real IO.
		if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			hotf(pass, n, call.Pos(), "io interface call %s may block on real IO", exprString(call))
		}
	case "runtime":
		if name == "Gosched" || name == "GC" {
			hotf(pass, n, call.Pos(), "runtime.%s yields the processor", name)
		}
	}
}
