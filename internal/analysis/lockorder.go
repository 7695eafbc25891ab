package analysis

// lockorder builds the program-wide mutex-acquisition graph and
// reports ordering hazards: an edge A->B means some function acquires
// lock B (directly or through a callee) while holding A. Any strongly
// connected component — an A->B plus a path back — is a potential
// deadlock; a self-edge is a potential recursive acquisition (Go
// mutexes are not reentrant). Lock identity is structural, (type,
// field) for mutex fields and package.var for globals, so two
// instances of the same shard type count as the same lock: acquiring
// two shards without an agreed order is exactly the cross-shard
// aggregator bug this analyzer exists to catch (ROADMAP item 1).
//
// Held sets are tracked lexically within one function (the same
// approximation lockdiscipline uses); transitive acquisitions
// propagate through static and interface call edges only — the
// conservative function-value edges of the hotpath closure would
// fabricate cycles no execution can take.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder reports mutex-acquisition cycles and inconsistent lock
// orderings across the whole loaded program.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex-acquisition graph must be cycle-free (consistent lock ordering program-wide)",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, d := range pass.Prog.lockOrderDiags() {
		if d.pkg == pass.Pkg.Path {
			pass.report(Diagnostic{Pos: d.pos, Analyzer: pass.Analyzer.Name, Message: d.msg})
		}
	}
}

// lockDiag is one pre-computed lockorder finding, tagged with the
// package whose pass should surface it.
type lockDiag struct {
	pkg string
	pos token.Position
	msg string
}

// lockEvent is one acquisition, release, or call inside a function,
// ordered lexically.
type lockEvent struct {
	pos     token.Pos
	acquire string // lock id acquired ("" if not an acquire)
	release string // lock id released
	callee  *FuncNode
}

// lockEdge is one A-held-while-acquiring-B witness.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
	fn       string
}

// lockOrderDiags computes the program-wide lock graph once and caches
// the findings; each package's pass reports only its own positions.
func (p *Program) lockOrderDiags() []lockDiag {
	p.ensure()
	if p.lockOnce {
		return p.lockCache
	}
	p.lockOnce = true

	events := make(map[*FuncNode][]lockEvent)
	for _, n := range p.nodes {
		if evs := collectLockEvents(p, n); len(evs) > 0 {
			events[n] = evs
		}
	}

	// Transitive acquisition sets, over static+interface edges only.
	acq := make(map[*FuncNode]map[string]bool)
	for n, evs := range events {
		set := make(map[string]bool)
		for _, e := range evs {
			if e.acquire != "" {
				set[e.acquire] = true
			}
		}
		if len(set) > 0 {
			acq[n] = set
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range p.nodes {
			for _, e := range n.edges {
				if e.viaValue {
					continue
				}
				for id := range acq[e.to] {
					if acq[n] == nil {
						acq[n] = make(map[string]bool)
					}
					if !acq[n][id] {
						acq[n][id] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges with witnesses: walk each function's events in lexical
	// order, tracking the held set.
	var edges []lockEdge
	for _, n := range p.nodes {
		evs := events[n]
		if len(evs) == 0 {
			continue
		}
		var held []string
		for _, ev := range evs {
			switch {
			case ev.acquire != "":
				for _, h := range held {
					edges = append(edges, lockEdge{from: h, to: ev.acquire, pos: ev.pos, pkg: n.Pkg, fn: n.name})
				}
				held = append(held, ev.acquire)
			case ev.release != "":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.release {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case ev.callee != nil:
				for _, h := range held {
					ids := make([]string, 0, len(acq[ev.callee]))
					for id := range acq[ev.callee] {
						ids = append(ids, id)
					}
					sort.Strings(ids)
					for _, id := range ids {
						edges = append(edges, lockEdge{from: h, to: id, pos: ev.pos, pkg: n.Pkg, fn: n.name})
					}
				}
			}
		}
	}

	p.lockCache = lockFindings(edges)
	return p.lockCache
}

// lockFindings reduces the witnessed edges to one finding per hazard:
// self-edges and edges inside a multi-node cycle.
func lockFindings(edges []lockEdge) []lockDiag {
	// Adjacency for cycle detection.
	adj := make(map[string]map[string]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	// reaches reports whether to can reach from (so from->to closes a
	// cycle). The graphs here are tiny; DFS per query is fine.
	reaches := func(src, dst string) bool {
		seen := map[string]bool{src: true}
		stack := []string{src}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == dst {
				return true
			}
			keys := make([]string, 0, len(adj[n]))
			for k := range adj[n] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if !seen[k] {
					seen[k] = true
					stack = append(stack, k)
				}
			}
		}
		return false
	}

	// Keep the first witness per directed pair (deterministic: sort by
	// position first).
	sort.Slice(edges, func(i, j int) bool {
		pi := edges[i].pkg.Fset.Position(edges[i].pos)
		pj := edges[j].pkg.Fset.Position(edges[j].pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return edges[i].from+edges[i].to < edges[j].from+edges[j].to
	})
	firstWitness := make(map[[2]string]lockEdge)
	for _, e := range edges {
		key := [2]string{e.from, e.to}
		if _, ok := firstWitness[key]; !ok {
			firstWitness[key] = e
		}
	}

	var out []lockDiag
	report := func(e lockEdge, msg string) {
		out = append(out, lockDiag{
			pkg: e.pkg.Path,
			pos: e.pkg.Fset.Position(e.pos),
			msg: msg,
		})
	}
	keys := make([][2]string, 0, len(firstWitness))
	for k := range firstWitness {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e := firstWitness[k]
		if e.from == e.to {
			report(e, fmt.Sprintf("possible recursive acquisition: %s taken in %s while already held (Go mutexes are not reentrant)",
				e.to, shortFuncName(e.fn)))
			continue
		}
		if reaches(e.to, e.from) {
			other := ""
			if w, ok := firstWitness[[2]string{e.to, e.from}]; ok {
				p := w.pkg.Fset.Position(w.pos)
				other = fmt.Sprintf(" (opposite order at %s:%d)", p.Filename, p.Line)
			}
			report(e, fmt.Sprintf("lock-order cycle: %s acquired while %s is held in %s%s",
				e.to, e.from, shortFuncName(e.fn), other))
		}
	}
	return out
}

// collectLockEvents extracts the lexical acquire/release/call sequence
// of one function. Unlocks inside defer statements never release (the
// lock is held to function exit).
func collectLockEvents(p *Program, n *FuncNode) []lockEvent {
	info := n.Pkg.Info
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if d, ok := nd.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	var evs []lockEvent
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			// Static non-method calls still matter for transitive
			// acquisition.
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent {
				if fn, isFn := usedFunc(info, id); isFn {
					if to := p.byFn[fn.Origin()]; to != nil {
						evs = append(evs, lockEvent{pos: call.Pos(), callee: to})
					}
				}
			}
			return true
		}
		fn, ok := usedFunc(info, sel.Sel)
		if !ok {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			id, ok := lockIdentity(info, sel.X)
			if !ok {
				return true
			}
			switch fn.Name() {
			case "Lock", "RLock":
				evs = append(evs, lockEvent{pos: call.Pos(), acquire: id})
			case "Unlock", "RUnlock":
				if !deferred[call] {
					evs = append(evs, lockEvent{pos: call.Pos(), release: id})
				}
			}
			return true
		}
		// Method or cross-package call: record for transitive sets.
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			for _, m := range p.implementations(fn) {
				evs = append(evs, lockEvent{pos: call.Pos(), callee: m})
			}
			return true
		}
		if to := p.byFn[fn.Origin()]; to != nil {
			evs = append(evs, lockEvent{pos: call.Pos(), callee: to})
		}
		return true
	})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// lockIdentity names the mutex a Lock/Unlock call operates on,
// structurally: "(pkg.Type).field" for mutex fields, "pkg.var" for
// package-level mutexes. Locals return false — they cannot interleave
// across functions.
func lockIdentity(info *types.Info, recv ast.Expr) (string, bool) {
	recv = ast.Unparen(recv)
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		// y.mu.Lock(): a mutex field of y's type, or a package var
		// pkg.Mu.Lock().
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(sel.Recv()); named != "" {
				return fmt.Sprintf("(%s).%s", named, x.Sel.Name), true
			}
			return "", false
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPkgLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	case *ast.Ident:
		// mu.Lock() on a package-level mutex, or Lock() promoted from
		// an embedded mutex (handled by the caller's selector).
		if v, ok := info.Uses[x].(*types.Var); ok && isPkgLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	}
	return "", false
}

func namedOf(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return shortPkgPath(obj.Pkg().Path()) + "." + obj.Name()
		}
		return obj.Name()
	}
	return ""
}

func shortPkgPath(p string) string {
	p = strings.TrimPrefix(p, "taq/internal/analysis/testdata/src/")
	return strings.TrimPrefix(p, "taq/internal/")
}

// isPkgLevel reports whether v is a package-level variable (never a
// local or a struct field).
func isPkgLevel(v *types.Var) bool {
	sc := v.Parent()
	return v.Pkg() != nil && sc != nil && sc.Parent() == types.Universe
}
