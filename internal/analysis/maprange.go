package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapRange guards deterministic packages against Go's randomized map
// iteration order. One pass per package reports two kinds of defect.
//
// In a `for ... range m` loop over a map, the body must not do anything
// order-sensitive: calling functions (scheduling, callbacks, mutation
// behind an interface), accumulating floating-point values (addition is
// not associative), overwriting variables outside the loop (last writer
// wins in map order), appending to a slice that is never sorted
// afterwards, or sending on a channel. Order-insensitive bodies —
// integer counting, per-key writes indexed by the loop key, deletes —
// stay legal, as does the canonical collect-keys-then-sort idiom.
//
// Values derived from map iteration order — a keys slice, a first
// match, a reduction — are tracked as they flow through returns,
// parameters, and struct fields within the package, and reported when
// they reach an order-sensitive sink:
//
//   - an argument to Schedule/ScheduleAt/After/Reschedule (event order
//     becomes map-order);
//   - floating-point accumulation (float addition is not associative);
//   - iteration that calls functions (callbacks run in map order);
//   - a call that forwards the value to a function whose parameter
//     reaches one of those sinks (reported at the call site).
//
// Passing the value through sort.* or slices.* clears the taint — the
// collect-then-sort idiom is the sanctioned fix. Only taint that
// crossed a function, field, or call boundary is reported at a sink;
// order sensitivity inside the loop itself is the loop check's finding,
// so one defect is reported once.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag order-sensitive map iteration, and map-order taint reaching scheduling, ordering, or float accumulation, in deterministic packages",
	Run:  runMapRange,
}

// Taint facts (bitmask; FlowState joins by OR).
const (
	taintMap   = 1 << 0 // locally derived from map iteration order
	taintCross = 1 << 1 // derived from a tainted function result or field
	paramShift = 2      // bit paramShift+i: derived from parameter i
	maxParams  = 30
)

func taintJoin(a, b int) int { return a | b }

func paramBit(i int) int {
	if i >= maxParams {
		return 0
	}
	return 1 << (paramShift + i)
}

// ordered reports whether the taint carries actual map order (directly
// or through a call/field), as opposed to hypothetical parameter taint.
func ordered(t int) bool { return t&(taintMap|taintCross) != 0 }

// taintSummary is what one function exposes to its callers.
type taintSummary struct {
	// result: some return value carries map-iteration order.
	result bool
	// resultFromParam: bitmask of parameters whose taint reaches a
	// return value.
	resultFromParam int
	// paramSink maps a parameter index to a description of the
	// order-sensitive sink it reaches inside the function.
	paramSink map[int]string
}

// mapOrder is runMapRange's state for one package.
type mapOrder struct {
	pass       *Pass
	summaries  map[*types.Func]*taintSummary
	fieldTaint map[types.Object]bool
	// litSum stands in for the summary of bodies no caller can name:
	// closures in package-level initializers.
	litSum *taintSummary
	// report is set for the final round, which alone reports; checked
	// keeps it to one loop check per map range, however often the
	// walker revisits a loop.
	report  bool
	checked map[*ast.RangeStmt]bool
	changed bool
}

func runMapRange(p *Pass) {
	if !p.Cfg.IsDeterministic(p.Pkg.Path) {
		return
	}
	c := &mapOrder{
		pass:       p,
		summaries:  make(map[*types.Func]*taintSummary),
		fieldTaint: make(map[types.Object]bool),
		litSum:     &taintSummary{paramSink: make(map[int]string)},
		checked:    make(map[*ast.RangeStmt]bool),
	}
	// Fixpoint over the package's call graph: summaries and field
	// taints feed each other, so iterate until stable (the lattice is
	// finite and monotone; four rounds cover any realistic chain).
	for i := 0; i < 4; i++ {
		c.changed = false
		c.analyzePackage()
		if !c.changed {
			break
		}
	}
	c.report = true
	c.analyzePackage()
}

// analyzePackage walks every function body once. The flow walker
// descends into function literals, so this also reaches every map
// range in a closure.
func (c *mapOrder) analyzePackage() {
	info := c.pass.Pkg.Info
	for _, f := range c.pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Body == nil {
					continue
				}
				sum, params := c.litSum, (*types.Tuple)(nil)
				if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
					sum, params = c.summaryFor(fn), fn.Type().(*types.Signature).Params()
				}
				c.analyzeBody(decl.Body, params, sum)
			case *ast.GenDecl:
				// Closures in package-level initializers.
				ast.Inspect(decl, func(n ast.Node) bool {
					fl, ok := n.(*ast.FuncLit)
					if ok {
						c.analyzeBody(fl.Body, nil, c.litSum)
					}
					return !ok
				})
			}
		}
	}
}

func (c *mapOrder) summaryFor(fn *types.Func) *taintSummary {
	s := c.summaries[fn]
	if s == nil {
		s = &taintSummary{paramSink: make(map[int]string)}
		c.summaries[fn] = s
	}
	return s
}

// analyzeBody runs the flow pass over one function body with params
// (nil for a closure in a package-level initializer), updating sum.
func (c *mapOrder) analyzeBody(body *ast.BlockStmt, params *types.Tuple, sum *taintSummary) {
	info := c.pass.Pkg.Info

	// Hypothetical taint: parameter i starts with its own bit, so a
	// sink hit by bit i becomes a paramSink entry rather than a report.
	st := make(FlowState)
	for i := 0; i < params.Len(); i++ {
		st.Set(Ref{Base: params.At(i)}, paramBit(i))
	}

	recordParamSinks := func(t int, sink string) {
		for i := 0; i < params.Len(); i++ {
			if t&paramBit(i) != 0 {
				if sum.paramSink[i] == "" {
					sum.paramSink[i] = sink
					c.changed = true
				}
			}
		}
	}

	hooks := FlowHooks{
		Join: taintJoin,
		Range: func(rs *ast.RangeStmt, st FlowState) {
			xt := info.TypeOf(rs.X)
			if xt == nil {
				return
			}
			if _, isMap := xt.Underlying().(*types.Map); isMap {
				if c.report && !c.checked[rs] {
					c.checked[rs] = true
					checkMapRange(c.pass, rs, body)
				}
				for _, v := range []ast.Expr{rs.Key, rs.Value} {
					if obj := rangeVarObj(info, v); obj != nil {
						st.Set(Ref{Base: obj}, st.Get(Ref{Base: obj})|taintMap)
					}
				}
				return
			}
			// Ranging a tainted slice: the element pairing carries map
			// order. Iterating it with calls is itself a sink.
			t := c.exprTaint(rs.X, st)
			if t == 0 {
				return
			}
			for _, v := range []ast.Expr{rs.Key, rs.Value} {
				if obj := rangeVarObj(info, v); obj != nil {
					st.Set(Ref{Base: obj}, st.Get(Ref{Base: obj})|t)
				}
			}
			if bodyCalls(info, rs.Body) {
				if c.report && t&taintCross != 0 {
					c.pass.Reportf(rs.Pos(),
						"iterating %s, whose order derives from map iteration in another function, and calling functions per element; sort it first (or sort in the producer)",
						exprString(rs.X))
				}
				recordParamSinks(t, "per-element calls in iteration order")
				// The range-level finding covers every per-element use,
				// so strip the ordered bits from the loop variables:
				// body sinks must not re-report the same defect.
				if t&taintCross != 0 {
					for _, v := range []ast.Expr{rs.Key, rs.Value} {
						if obj := rangeVarObj(info, v); obj != nil {
							st.Set(Ref{Base: obj}, st.Get(Ref{Base: obj})&^(taintMap|taintCross))
						}
					}
				}
			}
		},
		Assign: func(lhs, rhs ast.Expr, tok token.Token, st FlowState) {
			var rt int
			if rhs != nil {
				rt = c.exprTaint(rhs, st)
			}
			switch tok {
			case token.ASSIGN, token.DEFINE:
				if r, ok := RefOf(info, lhs); ok {
					st.Set(r, rt)
					if r.Field != nil && ordered(rt) && !c.fieldTaint[r.Field] {
						c.fieldTaint[r.Field] = true
						c.changed = true
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				if lt := info.TypeOf(lhs); isFloat(lt) {
					if c.report && rt&taintCross != 0 {
						c.pass.Reportf(lhs.Pos(),
							"floating-point accumulation of a value whose order derives from map iteration in another function; float addition is not associative — sort the inputs first",
						)
					}
					recordParamSinks(rt, "floating-point accumulation")
				}
				if r, ok := RefOf(info, lhs); ok {
					st.Set(r, st.Get(r)|rt)
				}
			default:
				if r, ok := RefOf(info, lhs); ok {
					st.Set(r, st.Get(r)|rt)
				}
			}
		},
		PostCall: func(call *ast.CallExpr, st FlowState) {
			// sort.*/slices.* sanitize their argument in place.
			if isSortCall(info, call) {
				for _, arg := range call.Args {
					if r, ok := RefOf(info, unconvert(info, arg)); ok {
						st.Set(r, 0)
					}
				}
				return
			}
			// Scheduling sinks: event order must not be map order.
			if name := scheduleCalleeName(call); name != "" {
				for _, arg := range call.Args {
					t := c.exprTaint(arg, st)
					if c.report && t&taintCross != 0 {
						c.pass.Reportf(arg.Pos(),
							"%s argument derives from map iteration order in another function; event order becomes nondeterministic — sort the derivation first", name)
					}
					recordParamSinks(t, name+" argument")
				}
			}
			// Forwarding into a function whose parameter reaches a sink.
			callee, _ := calleeObj(info, call.Fun).(*types.Func)
			if callee == nil {
				return
			}
			calleeSum := c.summaries[callee]
			if calleeSum == nil {
				return
			}
			for i, arg := range call.Args {
				sink := calleeSum.paramSink[i]
				if sink == "" {
					continue
				}
				t := c.exprTaint(arg, st)
				if c.report && ordered(t) {
					c.pass.Reportf(arg.Pos(),
						"passes a map-iteration-ordered value to %s, which feeds it into %s; sort it before the call", callee.Name(), sink)
				}
				recordParamSinks(t, fmt.Sprintf("%s (via %s)", sink, callee.Name()))
			}
		},
		Return: func(rt *ast.ReturnStmt, st FlowState) {
			for _, res := range rt.Results {
				t := c.exprTaint(res, st)
				if ordered(t) && !sum.result {
					sum.result = true
					c.changed = true
				}
				if bits := t &^ (taintMap | taintCross); bits != 0 && sum.resultFromParam&bits != bits {
					sum.resultFromParam |= bits
					c.changed = true
				}
			}
		},
	}
	WalkFlow(info, body, st, hooks)
}

// exprTaint computes the taint of an expression under the current
// state, consulting function summaries and tainted fields.
func (c *mapOrder) exprTaint(e ast.Expr, st FlowState) int {
	info := c.pass.Pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if r, ok := RefOf(info, e); ok {
			t := st.Get(r)
			if r.Field != nil && c.fieldTaint[r.Field] {
				t |= taintCross
			}
			return t
		}
		// A bare field selector whose base is not a simple variable
		// (e.g. chained accessor): field taint still applies.
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal && c.fieldTaint[s.Obj()] {
				return taintCross
			}
		}
		return 0
	case *ast.IndexExpr:
		return c.exprTaint(x.X, st) | c.exprTaint(x.Index, st)
	case *ast.SliceExpr:
		return c.exprTaint(x.X, st)
	case *ast.StarExpr:
		return c.exprTaint(x.X, st)
	case *ast.UnaryExpr:
		return c.exprTaint(x.X, st)
	case *ast.BinaryExpr:
		return c.exprTaint(x.X, st) | c.exprTaint(x.Y, st)
	case *ast.CompositeLit:
		t := 0
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t |= c.exprTaint(el, st)
		}
		return t
	case *ast.TypeAssertExpr:
		return c.exprTaint(x.X, st)
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 {
				return c.exprTaint(x.Args[0], st) // conversion
			}
			return 0
		}
		if b, ok := calleeObj(info, x.Fun).(*types.Builtin); ok {
			if b.Name() == "append" {
				t := 0
				for _, arg := range x.Args {
					t |= c.exprTaint(arg, st)
				}
				return t
			}
			return 0 // len/cap/min/max are order-free
		}
		if isSortCall(info, x) {
			return 0 // sorted copies come back order-free
		}
		callee, _ := calleeObj(info, x.Fun).(*types.Func)
		if callee == nil {
			return 0
		}
		sum := c.summaries[callee]
		if sum == nil {
			return 0
		}
		t := 0
		if sum.result {
			t |= taintCross
		}
		for i, arg := range x.Args {
			if sum.resultFromParam&paramBit(i) == 0 {
				continue
			}
			at := c.exprTaint(arg, st)
			if ordered(at) {
				t |= taintCross
			}
			t |= at &^ (taintMap | taintCross)
		}
		return t
	}
	return 0
}

// bodyCalls reports whether the block contains a real function call
// (not a conversion or order-free builtin).
func bodyCalls(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && realCall(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// realCall reports whether call invokes a function, not a conversion
// or a builtin (append, len, delete, ...).
func realCall(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false
	}
	_, builtin := calleeObj(info, call.Fun).(*types.Builtin)
	return !builtin
}

// scheduleCalleeName returns the event-scheduling entry point name when
// call is one (Schedule/ScheduleAt/After/Reschedule), else "".
func scheduleCalleeName(call *ast.CallExpr) string {
	name := ""
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	switch name {
	case "Schedule", "ScheduleAt", "After", "Reschedule":
		return name
	}
	return ""
}

// isSortCall reports whether call is into package sort or slices.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// unconvert unwraps a single conversion (sort.Sort(byID(ids))).
func unconvert(info *types.Info, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return e
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return call.Args[0]
	}
	return e
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkMapRange reports the order-sensitive work in the body of rs, a
// range over a map inside the function body fn.
func checkMapRange(p *Pass, rs *ast.RangeStmt, fn *ast.BlockStmt) {
	info := p.Pkg.Info

	keyObj := rangeVarObj(info, rs.Key)
	valObj := rangeVarObj(info, rs.Value)
	isLocal := func(obj types.Object) bool {
		return obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
	}
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil && (o == keyObj || o == valObj) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	var reasons []string
	addReason := func(r string) {
		for _, have := range reasons {
			if have == r {
				return
			}
		}
		if len(reasons) < 3 {
			reasons = append(reasons, r)
		}
	}
	var appendTargets []types.Object

	handleLHS := func(lhs ast.Expr, tok token.Token) {
		base, keyIndexed := lvalueBase(lhs, usesLoopVar)
		if base == nil {
			return
		}
		obj := info.Uses[base]
		if obj == nil {
			obj = info.Defs[base]
		}
		if obj == nil || isLocal(obj) {
			return
		}
		lt := info.TypeOf(lhs)
		switch tok {
		case token.ASSIGN:
			if !keyIndexed {
				addReason(fmt.Sprintf("overwrites %s (last writer wins in map order)", exprString(lhs)))
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN,
			token.INC, token.DEC:
			if isOrderSensitiveNumeric(lt) {
				addReason(fmt.Sprintf("accumulates floating-point into %s (addition is not associative)", exprString(lhs)))
			}
		default: // /=, %=, <<=, >>=, string +=, ...
			addReason(fmt.Sprintf("order-dependent update of %s", exprString(lhs)))
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// append is handled at its assignment; conversions and
			// len/cap/delete are order-safe.
			if realCall(info, n) {
				addReason(fmt.Sprintf("calls %s (callbacks run in map order)", exprString(n.Fun)))
			}
		case *ast.SendStmt:
			addReason("sends on a channel in map order")
		case *ast.IncDecStmt:
			handleLHS(n.X, n.Tok)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				// x = append(x, ...) is an append, not an overwrite.
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isAppendOf(info, call, lhs) {
						base, _ := lvalueBase(lhs, usesLoopVar)
						if base != nil {
							obj := info.Uses[base]
							if obj == nil {
								obj = info.Defs[base]
							}
							if obj != nil && !isLocal(obj) {
								appendTargets = append(appendTargets, obj)
							}
						}
						continue
					}
				}
				handleLHS(lhs, n.Tok)
			}
		}
		return true
	})

	// Appends alone are fine if the slice is sorted after the loop (the
	// collect-then-sort idiom); otherwise the slice inherits map order.
	for _, obj := range appendTargets {
		if !sortedAfter(p, enclosingBody(fn, rs), rs, obj) {
			addReason(fmt.Sprintf("appends to %s without sorting it afterwards", obj.Name()))
		}
	}

	if len(reasons) > 0 {
		p.Reportf(rs.Pos(),
			"iterating map %s in nondeterministic order: %s; iterate sorted keys instead",
			exprString(rs.X), strings.Join(reasons, "; "))
	}
}

// rangeVarObj resolves the object of a range key/value variable.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id == nil {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// lvalueBase walks an lvalue (selectors, indexes, derefs) to its base
// identifier — g, g.f, g[i].f, (*g).f all resolve to g — reporting
// whether any index along the way mentions a loop variable (a per-key
// write, which is order-insensitive). usesLoopVar may be nil.
func lvalueBase(e ast.Expr, usesLoopVar func(ast.Expr) bool) (*ast.Ident, bool) {
	keyIndexed := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, keyIndexed
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if usesLoopVar != nil && usesLoopVar(x.Index) {
				keyIndexed = true
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, keyIndexed
		}
	}
}

func calleeObj(info *types.Info, fun ast.Expr) types.Object {
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	case *ast.ParenExpr:
		return calleeObj(info, f.X)
	}
	return nil
}

func isAppendOf(info *types.Info, call *ast.CallExpr, lhs ast.Expr) bool {
	if b, ok := calleeObj(info, call.Fun).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return len(call.Args) > 0 && exprString(call.Args[0]) == exprString(lhs)
}

// isOrderSensitiveNumeric reports whether commutative-operator updates
// of this type still depend on evaluation order (floats, complex).
func isOrderSensitiveNumeric(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return true // be conservative about named/unknown types
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// enclosingBody returns the innermost function body within fn that
// contains rs: the scope in which a sort after the loop may appear.
func enclosingBody(fn *ast.BlockStmt, rs *ast.RangeStmt) *ast.BlockStmt {
	encl := fn
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil || rs.Pos() < n.Pos() || n.End() <= rs.Pos() {
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			encl = fl.Body
		}
		return n != rs
	})
	return encl
}

// sortedAfter reports whether, after the range statement, the enclosing
// function sorts the appended-to object via package sort or slices.
func sortedAfter(p *Pass, encl *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(p.Pkg.Info, call) {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && p.Pkg.Info.Uses[aid] == obj {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
