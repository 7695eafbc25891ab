package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TimerOwn checks *sim.Timer handles against two contracts.
//
// Ownership (DESIGN.md §5): sim.Reschedule / Engine.Reschedule take
// ownership of the handle passed in — the struct may be re-armed in
// place for an unrelated event — so the only valid handle afterwards is
// the one Reschedule returns. The analyzer tracks handles through the
// intra-procedural flow pass and flags, along any control-flow path
// where the handle was not replaced:
//
//   - a plain use (read, argument, return) of the stale handle;
//   - Cancel/Stop on it — by then the struct may have been recycled
//     for a stranger's event, which the Cancel would kill;
//   - a second Reschedule of the same stale handle;
//   - storing it into a field, map, or slice (the stale alias escapes);
//   - discarding Reschedule's result, which makes every existing
//     handle stale with no replacement.
//
// Teardown: a *sim.Timer returned by any call (Schedule, Reschedule,
// a helper) and discarded inside a method of a type that has a
// teardown path (Stop/Close/Shutdown/Teardown) can never be canceled:
// after teardown it either fires into freed state or — in the
// real-time engine — keeps a goroutine timer alive. Types without a
// teardown path run to quiescence, so fire-and-forget is fine there.
//
// A discarded handle is reported once: as a discarded Reschedule result
// when it is one, otherwise as a leak from a type with a teardown path.
// The sim package itself, which implements the recycling, is exempt
// from the ownership rules but not from the teardown rule.
var TimerOwn = &Analyzer{
	Name: "timerown",
	Doc:  "flag uses of *sim.Timer handles after Reschedule transferred their ownership, and discarded timers in types with a teardown path",
	Run:  runTimerOwn,
}

var teardownNames = []string{"Stop", "Close", "Shutdown", "Teardown"}

// Timer ownership facts.
const (
	ownLive        = 0 // valid handle (or no information)
	ownTransferred = 1 // handed to Reschedule on every path here
	ownMaybe       = 2 // handed to Reschedule on some path here
)

func ownJoin(a, b int) int {
	if a == b {
		return a
	}
	return ownMaybe
}

func runTimerOwn(p *Pass) {
	// The engine legally touches recycled structs.
	inSim := isSimPackage(p.Pkg.Path)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !inSim {
				checkTimerOwn(p, fd.Body)
			}
			checkDiscardedTimers(p, fd, inSim)
		}
	}
}

func checkTimerOwn(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// cancels maps a Cancel/Stop call to the receiver expression it
	// claimed in PreCall, so PostCall can phrase the specific message.
	cancels := make(map[*ast.CallExpr]ast.Expr)
	transfers := make(map[*ast.CallExpr]ast.Expr)

	hooks := FlowHooks{
		Join: ownJoin,
		PreCall: func(call *ast.CallExpr, st FlowState) []ast.Expr {
			var claimed []ast.Expr
			if arg := rescheduleHandleArg(info, call); arg != nil {
				transfers[call] = arg
				claimed = append(claimed, arg)
			}
			if recv := cancelReceiver(info, call); recv != nil {
				cancels[call] = recv
				claimed = append(claimed, recv)
			}
			return claimed
		},
		PostCall: func(call *ast.CallExpr, st FlowState) {
			if arg, ok := transfers[call]; ok {
				if r, ok := RefOf(info, arg); ok {
					switch st.Get(r) {
					case ownTransferred:
						p.Reportf(arg.Pos(),
							"second Reschedule of %s on this path: its ownership was already transferred and the handle is stale; use the handle the first Reschedule returned",
							exprString(arg))
					case ownMaybe:
						p.Reportf(arg.Pos(),
							"Reschedule of %s, which may already have been handed to Reschedule on another path; replace the handle with Reschedule's result on every path",
							exprString(arg))
					}
					st.Set(r, ownTransferred)
				}
			}
			if recv, ok := cancels[call]; ok {
				if r, ok := RefOf(info, recv); ok {
					switch st.Get(r) {
					case ownTransferred:
						p.Reportf(recv.Pos(),
							"Cancel of %s after Reschedule took ownership: the engine may have recycled the struct for an unrelated event, so this Cancel can kill a stranger's timer",
							exprString(recv))
					case ownMaybe:
						p.Reportf(recv.Pos(),
							"Cancel of %s, which may have been handed to Reschedule on another path (recycled handle); re-assign the handle from Reschedule's result on every path",
							exprString(recv))
					}
				}
			}
		},
		Assign: func(lhs, rhs ast.Expr, tok token.Token, st FlowState) {
			if r, ok := RefOf(info, lhs); ok && isSimTimerPtr(info.TypeOf(lhs)) {
				// Any re-assignment installs a fresh handle.
				st.Set(r, ownLive)
			}
		},
		Use: func(e ast.Expr, r Ref, ctx UseCtx, st FlowState) {
			if !isSimTimerPtr(info.TypeOf(e)) {
				return
			}
			fact := st.Get(r)
			if fact == ownLive {
				return
			}
			qualifier := "was "
			if fact == ownMaybe {
				qualifier = "may have been "
			}
			switch ctx {
			case UseStore:
				p.Reportf(e.Pos(),
					"stores %s into a field, map, or slice, but its ownership %stransferred to Reschedule — the escaped handle is stale and may be recycled",
					exprString(e), qualifier)
			case UseReturn:
				p.Reportf(e.Pos(),
					"returns %s whose ownership %stransferred to Reschedule; return the handle Reschedule returned instead",
					exprString(e), qualifier)
			default:
				p.Reportf(e.Pos(),
					"use of %s after its ownership %stransferred to Reschedule; use the handle Reschedule returned instead",
					exprString(e), qualifier)
			}
		},
	}
	WalkFlow(info, body, nil, hooks)
}

// checkDiscardedTimers is the statement pass over discarded *sim.Timer
// results in fd, closures included.
func checkDiscardedTimers(p *Pass, fd *ast.FuncDecl, inSim bool) {
	info := p.Pkg.Info
	var owner *types.Named
	td := ""
	if fd.Recv != nil {
		if owner = receiverNamed(info, fd); owner != nil {
			td = teardownMethod(owner)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok || !isSimTimerPtr(info.TypeOf(call)) {
			return true
		}
		switch {
		case !inSim && rescheduleHandleArg(info, call) != nil:
			// The returned handle is the only valid one, so dropping it
			// strands the caller with nothing but stale aliases.
			p.Reportf(es.Pos(),
				"discarded Reschedule result: the returned handle replaces the one passed in; assign it back (t = sim.Reschedule(r, t, ...))")
		case td != "":
			p.Reportf(es.Pos(),
				"discarded *sim.Timer from %s; %s has a teardown path (%s) — keep the timer and Cancel it there",
				exprString(call.Fun), owner.Obj().Name(), td)
		}
		return true
	})
}

// rescheduleHandleArg returns the *sim.Timer argument of a Reschedule
// call (package helper sim.Reschedule or a Reschedule method), or nil
// when call is not a Reschedule.
func rescheduleHandleArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	name := ""
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	if name != "Reschedule" {
		return nil
	}
	for _, arg := range call.Args {
		if isSimTimerPtr(info.TypeOf(arg)) {
			return arg
		}
	}
	return nil
}

// cancelReceiver returns the receiver expression of a t.Cancel()/
// t.Stop() call on a *sim.Timer, or nil.
func cancelReceiver(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Cancel" && sel.Sel.Name != "Stop") {
		return nil
	}
	if !isSimTimerPtr(info.TypeOf(sel.X)) {
		return nil
	}
	return sel.X
}

// receiverNamed resolves the receiver's named type (through pointers).
func receiverNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) == 0 {
		return nil
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// teardownMethod returns the name of the type's teardown method, or "".
func teardownMethod(named *types.Named) string {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		name := ms.At(i).Obj().Name()
		for _, td := range teardownNames {
			if name == td {
				return name
			}
		}
	}
	return ""
}

// isSimTimerPtr reports whether t is *sim.Timer.
func isSimTimerPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Timer" && named.Obj().Pkg() != nil && isSimPackage(named.Obj().Pkg().Path())
}

// isSimPackage reports whether pkgPath is the sim engine package.
func isSimPackage(pkgPath string) bool {
	return pkgPath == "taq/internal/sim"
}
