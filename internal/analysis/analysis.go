// Package analysis implements taqvet, the repo-specific static
// analyzer suite that enforces the two invariants the compiler cannot:
//
//  1. Every package that runs under internal/sim must be bit-for-bit
//     deterministic: time and randomness may only come from the
//     sim.Runner (Now/Schedule/Rand), and nothing order-sensitive may
//     depend on Go's randomized map iteration order. A single stray
//     time.Now() or unsorted `for k := range m` silently de-reproduces
//     the paper figures.
//  2. internal/emu deliberately races real goroutine timers against one
//     engine mutex, so its lock discipline must hold.
//
// The suite is stdlib-only (go/ast, go/parser, go/types, go/token) to
// match the module's empty dependency set. See docs/static-analysis.md
// for the contract each analyzer enforces and the suppression syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding, printable as "file:line:col: message [analyzer]".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one check in the suite.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands one package to one analyzer and collects its reports.
type Pass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Pkg      *Package
	// Prog is the whole-program context (call graph, hotpath closure)
	// shared by every pass of one run; the v3 contract analyzers need
	// it, the per-package analyzers ignore it.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config selects which packages each analyzer applies to.
type Config struct {
	// Deterministic lists the base names of packages bound by the
	// determinism contract (wallclock and maprange apply there).
	Deterministic []string
	// LockPackages lists the base names of packages whose mutex
	// discipline lockdiscipline checks.
	LockPackages []string
	// NoallocPackages lists the base names of packages where noalloc
	// reports findings on hotpath-closure functions. The closure is
	// always computed whole-program; this scopes only the reporting,
	// so conservatively reached setup code outside the packet path
	// does not drown the signal.
	NoallocPackages []string
	// NoblockPackages is the same scope for noblock. It includes emu
	// (whose engine-lock pattern is then allowlisted by name), since
	// hot code dispatches into the emu engine through sim.Runner.
	NoblockPackages []string
	// NoblockAllow lists substrings of fully qualified function names
	// (types.Func.FullName form) exempt from noblock — the emu
	// engine-lock pattern, whose pairing lockdiscipline checks.
	NoblockAllow []string
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
}

// DefaultConfig returns the repo's production configuration: the
// simulation-facing packages are deterministic; emu is lock-checked.
// emu, trace (the generator) and cmd/ are deliberately absent from the
// deterministic set — they are allowed wall-clock time.
func DefaultConfig() *Config {
	return &Config{
		Deterministic: []string{
			"sim", "tcp", "queue", "core", "link", "topology",
			"workload", "markov", "tfrc", "metrics", "packet", "capture",
			// obs is deterministic by construction (timestamps are
			// caller-supplied sim.Time); its obshttp subpackage serves
			// the wall-clock emu engine and is deliberately excluded.
			"obs",
			// Analyzer fixtures under internal/analysis/testdata/src.
			// Wildcard patterns never expand into testdata, so these
			// only match when a fixture is named explicitly, e.g.
			//   go run ./cmd/taqvet ./internal/analysis/testdata/src/wallclock
			"wallclock", "maprange", "timerleak", "detaint", "allowfunc",
		},
		LockPackages: []string{"emu", "lockdiscipline"},
		NoallocPackages: []string{
			"sim", "queue", "link", "core", "packet", "obs",
			// Fixtures (matched only when named explicitly, as above).
			"hotpath", "noalloc",
		},
		NoblockPackages: []string{
			"sim", "queue", "link", "core", "packet", "obs", "emu",
			"hotpath", "noblock",
		},
		NoblockAllow: []string{
			// The emu engine serializes real-timer callbacks through
			// one mutex by design; lockdiscipline checks the pairing.
			"taq/internal/emu.Engine",
			// Fixture hook for the allowlist path.
			"noblock.allowedEngine",
		},
	}
}

// IsDeterministic reports whether the package at pkgPath is bound by
// the determinism contract. Matching is by the path's base name.
func (c *Config) IsDeterministic(pkgPath string) bool {
	return containsBase(c.Deterministic, pkgPath)
}

// IsLockChecked reports whether lockdiscipline applies to pkgPath.
func (c *Config) IsLockChecked(pkgPath string) bool {
	return containsBase(c.LockPackages, pkgPath)
}

// IsNoallocChecked reports whether noalloc reports findings in pkgPath.
func (c *Config) IsNoallocChecked(pkgPath string) bool {
	return containsBase(c.NoallocPackages, pkgPath)
}

// IsNoblockChecked reports whether noblock reports findings in pkgPath.
func (c *Config) IsNoblockChecked(pkgPath string) bool {
	return containsBase(c.NoblockPackages, pkgPath)
}

// NoblockAllowed reports whether the qualified function name matches
// the noblock allowlist.
func (c *Config) NoblockAllowed(funcName string) bool {
	for _, pat := range c.NoblockAllow {
		if strings.Contains(funcName, pat) {
			return true
		}
	}
	return false
}

func containsBase(list []string, pkgPath string) bool {
	base := path.Base(pkgPath)
	for _, name := range list {
		if name == base {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, MapRange, LockDiscipline, TimerOwn, SimTime, NoAlloc, NoBlock, LockOrder, ShardOwn, AtomicField, Layout}
}

// Run applies the configured analyzers to every package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func Run(pkgs []*Package, cfg *Config) []Diagnostic {
	diags, _ := RunAudit(pkgs, cfg)
	return diags
}

// RunAudit is Run plus annotation auditing: the second result lists
// one "audit" diagnostic per //taq:allow directive that suppressed
// nothing, plus one per malformed //taq: directive (unknown directive
// word, empty analyzer list, misplaced //taq:hotpath) — a misspelled
// suppression must fail -audit, not silently disable a gate. A
// directive is only judged stale against analyzers that actually ran,
// so -only subsets never produce false stales.
func RunAudit(pkgs []*Package, cfg *Config) (diags, stale []Diagnostic) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	prog := NewProgram(pkgs)
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		allow := collectAllows(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Cfg: cfg, Pkg: pkg, Prog: prog}
			pass.report = func(d Diagnostic) {
				if allow.suppressed(d) {
					return
				}
				// The dataflow walker revisits loop bodies, so an
				// analyzer may report one defect twice; keep the first.
				key := d.String()
				if !seen[key] {
					seen[key] = true
					out = append(out, d)
				}
			}
			a.Run(pass)
		}
		stale = append(stale, allow.stale(ran, known)...)
		stale = append(stale, collectMalformed(pkg)...)
	}
	SortDiagnostics(out)
	SortDiagnostics(stale)
	return out, stale
}

// SortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) — the canonical order every output format relies on for
// byte-stable output across packages.
func SortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowSet records //taq:allow suppression comments: a diagnostic is
// suppressed when an allow comment naming its analyzer sits on the same
// line or on the line immediately above, or when a //taq:allow(func)
// directive in the enclosing function's doc comment names it. Each
// directive tracks whether it ever suppressed anything, so RunAudit can
// flag stale ones.
type allowSet struct {
	// byFile maps filename -> line -> directives declared there.
	byFile map[string]map[int][]*allowEntry
	// ranged maps filename -> function-scoped allow(func) directives.
	ranged  map[string][]*allowEntry
	entries []*allowEntry
}

// allowEntry is one analyzer name of one //taq:allow or
// //taq:allow(func) directive.
type allowEntry struct {
	pos  token.Position
	name string
	used bool
	// scoped entries suppress any line of the annotated function's
	// declaration range instead of one source line.
	scoped   bool
	fromLine int
	toLine   int
}

func collectAllows(pkg *Package) *allowSet {
	s := &allowSet{
		byFile: make(map[string]map[int][]*allowEntry),
		ranged: make(map[string][]*allowEntry),
	}
	for _, d := range pkg.directives() {
		if d.word != "allow" && d.word != "allow(func)" {
			continue
		}
		fields := strings.Fields(d.rest)
		if len(fields) == 0 {
			continue // malformed; collectMalformed reports it
		}
		pos := pkg.Fset.Position(d.c.Pos())
		proto := allowEntry{pos: pos, scoped: d.word == "allow(func)"}
		if proto.scoped {
			// A //taq:allow(func) in a function's doc comment suppresses
			// findings anywhere in the declaration.
			fd, ok := d.host.(*ast.FuncDecl)
			if !ok {
				continue // misplaced; collectMalformed reports it
			}
			proto.fromLine, proto.toLine = pkg.Fset.Position(fd.Pos()).Line, pkg.Fset.Position(fd.End()).Line
		}
		// First token is the analyzer list; anything after it is
		// free-form rationale.
		for _, name := range strings.Split(fields[0], ",") {
			if name == "" {
				continue // malformed; collectMalformed reports it
			}
			e := proto
			e.name = name
			s.entries = append(s.entries, &e)
			if e.scoped {
				s.ranged[pos.Filename] = append(s.ranged[pos.Filename], &e)
				continue
			}
			lines := s.byFile[pos.Filename]
			if lines == nil {
				lines = make(map[int][]*allowEntry)
				s.byFile[pos.Filename] = lines
			}
			lines[pos.Line] = append(lines[pos.Line], &e)
		}
	}
	return s
}

// collectMalformed reports //taq: directives the suite cannot honor:
// unknown directive words (a typo like //taq:alow silently disables a
// gate), allow/allow(func) directives with an empty or partially empty
// analyzer list, directives outside the declaration kind they annotate
// (hotpath/crossshard/allow(func) on functions, shardowned/layout on
// type declarations, atomic on struct fields or package-level vars),
// and layout specs that fail to parse. They travel with the stale list
// so -audit exits non-zero on them. The checks use only the ASTs —
// never type info — so FuzzParseDirectives can drive them directly.
func collectMalformed(pkg *Package) []Diagnostic {
	var out []Diagnostic
	report := func(c *ast.Comment, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      pkg.Fset.Position(c.Pos()),
			Analyzer: "audit",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	// checkList validates the analyzer-name list shared by allow and
	// allow(func).
	checkList := func(c *ast.Comment, word, rest string) {
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			report(c, "malformed //taq:%s: missing analyzer list (want //taq:%s <name>[,<name>...] rationale)", word, word)
			return
		}
		for _, name := range strings.Split(fields[0], ",") {
			if name == "" {
				report(c, "malformed //taq:%s %s: empty analyzer name in list", word, fields[0])
				break
			}
		}
	}
	for _, d := range pkg.directives() {
		c := d.c
		_, onFunc := d.host.(*ast.FuncDecl)
		ts, _ := d.host.(*ast.TypeSpec)
		switch d.word {
		case "allow":
			checkList(c, d.word, d.rest)
		case "allow(func)":
			if !onFunc {
				report(c, "misplaced //taq:allow(func): the directive must sit in the doc comment of a function declaration")
				continue
			}
			checkList(c, d.word, d.rest)
		case "hotpath", "crossshard":
			if !onFunc {
				report(c, "misplaced //taq:%s: the directive must sit in the doc comment of a function declaration", d.word)
			}
		case "shardowned":
			if ts == nil {
				report(c, "misplaced //taq:shardowned: the directive must sit in the doc comment of a type declaration")
			}
		case "atomic":
			switch h := d.host.(type) {
			case *ast.Field:
				if len(h.Names) == 0 {
					report(c, "//taq:atomic on an embedded field is not supported — name the field")
				}
			case *ast.ValueSpec:
			default:
				report(c, "misplaced //taq:atomic: the directive must annotate a struct field or a package-level var")
			}
		case "layout":
			if ts == nil {
				report(c, "misplaced //taq:layout: the directive must sit in the doc comment of a struct type declaration")
				continue
			}
			if _, ok := ts.Type.(*ast.StructType); !ok {
				report(c, "//taq:layout on non-struct type %s — only structs have a layout to pin", ts.Name.Name)
				continue
			}
			if _, err := parseLayoutSpec(d.rest); err != nil {
				report(c, "malformed //taq:layout: %v", err)
			}
		default:
			report(c, "unknown directive //taq:%s (want allow, allow(func), hotpath, shardowned, crossshard, atomic, or layout)", d.word)
		}
	}
	return out
}

func (s *allowSet) suppressed(d Diagnostic) bool {
	hit := false
	if lines := s.byFile[d.Pos.Filename]; lines != nil {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, e := range lines[line] {
				if e.name == d.Analyzer || e.name == "all" {
					e.used = true
					hit = true
				}
			}
		}
	}
	for _, e := range s.ranged[d.Pos.Filename] {
		if d.Pos.Line >= e.fromLine && d.Pos.Line <= e.toLine && (e.name == d.Analyzer || e.name == "all") {
			e.used = true
			hit = true
		}
	}
	return hit
}

// stale returns one audit diagnostic per directive that suppressed
// nothing. Only analyzers in ran are judged (a directive for an
// analyzer that did not run this invocation is not stale); names not
// in known are always reported, as misspellings suppress nothing ever.
func (s *allowSet) stale(ran, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range s.entries {
		if e.used {
			continue
		}
		word := "//taq:allow"
		if e.scoped {
			word = "//taq:allow(func)"
		}
		switch {
		case !known[e.name] && e.name != "all":
			out = append(out, Diagnostic{
				Pos:      e.pos,
				Analyzer: "audit",
				Message:  fmt.Sprintf("%s names unknown analyzer %q (typo? see taqvet -list)", word, e.name),
			})
		case e.name == "all" || ran[e.name]:
			msg := fmt.Sprintf("stale %s %s: it suppresses no finding — delete the directive", word, e.name)
			if e.scoped {
				msg = fmt.Sprintf("stale %s %s: no line in the function produces a finding — delete the directive", word, e.name)
			}
			out = append(out, Diagnostic{Pos: e.pos, Analyzer: "audit", Message: msg})
		}
	}
	return out
}

// exprString renders a (small) expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "<expr>"
	}
}
