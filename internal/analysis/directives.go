package analysis

// directives.go parses every //taq: comment once into a per-package
// index (Package.directives) that records the declaration each one
// annotates. The suppression and audit collectors, the call graph's
// root detection, and the contract index all read it. The contract
// index gathers the v4 annotations — shard ownership, atomic
// discipline, and memory layout — program-wide for the shardown,
// atomicfield, and layout analyzers, and prints the annotation
// inventory CI diffs against docs/taq-annotations.txt.
//
// The directive grammar (placement validated by collectMalformed,
// parser fuzzed by FuzzParseDirectives):
//
//	//taq:shardowned <rationale>       doc comment of a type declaration
//	//taq:crossshard <rationale>       doc comment of a function declaration
//	//taq:atomic <rationale>           a struct field or a package-level var
//	//taq:layout size=N align=N hotbytes=LO..HI
//	                                   doc comment of a struct type declaration
//	//taq:allow(func) <name>[,...] <rationale>
//	                                   doc comment of a function declaration

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strconv"
	"strings"
)

// directiveWords is the complete //taq: vocabulary; collectMalformed
// reports anything else as an unknown directive.
var directiveWords = map[string]bool{
	"allow":       true,
	"allow(func)": true,
	"hotpath":     true,
	"shardowned":  true,
	"crossshard":  true,
	"atomic":      true,
	"layout":      true,
}

// layoutSpec is a parsed //taq:layout directive. A key that is absent
// is -1; at least one key is always present in a well-formed spec.
type layoutSpec struct {
	size  int64 // size=N: Sizeof must equal N exactly
	align int64 // align=N: Sizeof must be a multiple of N (cache-line padding)
	hotLo int64 // hotbytes=LO..HI: LO must be a field start offset...
	hotHi int64 // ...and HI a field end offset — the hot-core section edges
}

// parseLayoutSpec parses the key=value list of a //taq:layout
// directive. Every token must be a known key=value pair — rationale
// belongs in the surrounding doc comment prose, which keeps the
// grammar strict enough for -audit to classify every malformed form.
func parseLayoutSpec(rest string) (layoutSpec, error) {
	spec := layoutSpec{size: -1, align: -1, hotLo: -1, hotHi: -1}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return spec, fmt.Errorf("missing key=value list (want size=N, align=N, and/or hotbytes=LO..HI)")
	}
	for _, f := range fields {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return spec, fmt.Errorf("token %q is not key=value (rationale goes in the doc comment prose)", f)
		}
		switch key {
		case "size":
			if spec.size >= 0 {
				return spec, fmt.Errorf("duplicate key size")
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return spec, fmt.Errorf("size=%s is not a positive integer", val)
			}
			spec.size = n
		case "align":
			if spec.align >= 0 {
				return spec, fmt.Errorf("duplicate key align")
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 || n&(n-1) != 0 {
				return spec, fmt.Errorf("align=%s is not a positive power of two", val)
			}
			spec.align = n
		case "hotbytes":
			if spec.hotLo >= 0 {
				return spec, fmt.Errorf("duplicate key hotbytes")
			}
			lo, hi, ok := strings.Cut(val, "..")
			if !ok {
				return spec, fmt.Errorf("hotbytes=%s is not of the form LO..HI", val)
			}
			l, errL := strconv.ParseInt(lo, 10, 64)
			h, errH := strconv.ParseInt(hi, 10, 64)
			if errL != nil || errH != nil || l < 0 || h <= l {
				return spec, fmt.Errorf("hotbytes=%s needs integers with 0 <= LO < HI", val)
			}
			spec.hotLo, spec.hotHi = l, h
		default:
			return spec, fmt.Errorf("unknown key %q (want size, align, or hotbytes)", key)
		}
	}
	return spec, nil
}

// canonical renders the spec in fixed key order for the inventory.
func (s layoutSpec) canonical() string {
	var parts []string
	if s.size >= 0 {
		parts = append(parts, fmt.Sprintf("size=%d", s.size))
	}
	if s.align >= 0 {
		parts = append(parts, fmt.Sprintf("align=%d", s.align))
	}
	if s.hotLo >= 0 {
		parts = append(parts, fmt.Sprintf("hotbytes=%d..%d", s.hotLo, s.hotHi))
	}
	return strings.Join(parts, " ")
}

// layoutPin is one //taq:layout directive bound to its struct type.
type layoutPin struct {
	tn   *types.TypeName
	spec layoutSpec
	pos  token.Pos
	pkg  *Package
}

// contracts is the program-wide index of v4 annotations. The maps are
// keyed by stable strings (typeKey, *types.Func.FullName), never by
// object pointers: a package sees its own declarations through the
// source type-check but its imports through gc export data, so the
// same type or function has two distinct types.Object identities
// depending on which side of the import edge observes it.
type contracts struct {
	// shardOwned marks types (by typeKey) whose values must not escape
	// their owning package except through crossShard functions.
	shardOwned map[string]bool
	// crossShard marks the audited aggregator surface: functions (by
	// FullName) allowed to move shard-owned values across packages.
	crossShard map[string]bool
	// atomicObjs maps each //taq:atomic field (typeKey of the owning
	// struct + "." + field name) or package-level var (pkgpath.name) to
	// its short diagnostic label ("shared.hits", "parallelism").
	atomicObjs map[string]string
	// atomicOwners maps a struct's typeKey to the comma-joined names
	// of its atomic fields, for the copy-smuggling diagnostic.
	atomicOwners map[string]string
	layouts      []layoutPin

	// Printable inventory lines, built at collection time.
	shardNames, crossNames, atomicNames []string
}

// contractsIndex lazily collects the annotations across all packages.
func (p *Program) contractsIndex() *contracts {
	if p.contr == nil {
		p.contr = collectContracts(p.Pkgs)
	}
	return p.contr
}

// directive is one //taq: comment, parsed once, and the declaration
// hosting it. host is an *ast.FuncDecl with a body (the comment is in
// its doc), an *ast.TypeSpec (its doc or trailing comment, or the doc
// of a one-spec type declaration), an *ast.Field of a top-level struct
// type (owner is that type), an *ast.ValueSpec of a package-level var
// (its doc or trailing comment, or the doc of a one-spec var
// declaration), or nil.
type directive struct {
	c          *ast.Comment
	word, rest string
	host       ast.Node
	owner      *ast.TypeSpec
}

// directives returns the package's //taq: comments in file order. The
// index is built once per package from the ASTs alone, so the audit
// collectors need no type information and FuzzParseDirectives can
// drive them on a bare parse.
func (pkg *Package) directives() []directive {
	if pkg.dirs == nil {
		pkg.dirs = indexDirectives(pkg)
	}
	return pkg.dirs
}

func indexDirectives(pkg *Package) []directive {
	out := []directive{}
	for _, f := range pkg.Files {
		hosts := make(map[*ast.Comment]directive)
		mark := func(doc *ast.CommentGroup, host ast.Node, owner *ast.TypeSpec) {
			if doc == nil {
				return
			}
			for _, c := range doc.List {
				hosts[c] = directive{host: host, owner: owner}
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					mark(d.Doc, d, nil)
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE && d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					var declDoc *ast.CommentGroup
					if len(d.Specs) == 1 {
						declDoc = d.Doc
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						mark(declDoc, s, nil)
						mark(s.Doc, s, nil)
						mark(s.Comment, s, nil)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								mark(fld.Doc, fld, s)
								mark(fld.Comment, fld, s)
							}
						}
					case *ast.ValueSpec:
						mark(declDoc, s, nil)
						mark(s.Doc, s, nil)
						mark(s.Comment, s, nil)
					}
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, rest, ok := taqDirective(c.Text)
				if !ok {
					continue
				}
				d := hosts[c]
				d.c, d.word, d.rest = c, word, rest
				out = append(out, d)
			}
		}
	}
	return out
}

// taqDirective parses a "//taq:word rest..." comment. ok is false for
// comments that are not taq directives at all.
func taqDirective(text string) (word, rest string, ok bool) {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(text, "taq:") {
		return "", "", false
	}
	body := strings.TrimPrefix(text, "taq:")
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i:]), true
	}
	return body, "", true
}

func collectContracts(pkgs []*Package) *contracts {
	c := &contracts{
		shardOwned:   make(map[string]bool),
		crossShard:   make(map[string]bool),
		atomicObjs:   make(map[string]string),
		atomicOwners: make(map[string]string),
	}
	laidOut := make(map[string]bool)
	for _, pkg := range pkgs {
		typeOf := func(ts *ast.TypeSpec) *types.TypeName {
			tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
			return tn
		}
		for _, d := range pkg.directives() {
			switch h := d.host.(type) {
			case *ast.FuncDecl:
				fn, ok := pkg.Info.Defs[h.Name].(*types.Func)
				if d.word != "crossshard" || !ok || c.crossShard[fn.FullName()] {
					continue
				}
				c.crossShard[fn.FullName()] = true
				c.crossNames = append(c.crossNames, fn.FullName())
			case *ast.TypeSpec:
				tn := typeOf(h)
				if tn == nil {
					continue
				}
				switch d.word {
				case "shardowned":
					if !c.shardOwned[typeKey(tn)] {
						c.shardOwned[typeKey(tn)] = true
						c.shardNames = append(c.shardNames, pkg.Path+"."+h.Name.Name)
					}
				case "layout":
					// Misplaced and unparsable specs surface via collectMalformed.
					if _, isStruct := h.Type.(*ast.StructType); !isStruct || laidOut[typeKey(tn)] {
						continue
					}
					if spec, err := parseLayoutSpec(d.rest); err == nil {
						laidOut[typeKey(tn)] = true
						c.layouts = append(c.layouts, layoutPin{tn: tn, spec: spec, pos: h.Pos(), pkg: pkg})
					}
				}
			case *ast.Field:
				tn := typeOf(d.owner)
				if d.word != "atomic" || tn == nil {
					continue
				}
				for _, name := range h.Names {
					key := typeKey(tn) + "." + name.Name
					if _, dup := c.atomicObjs[key]; dup || pkg.Info.Defs[name] == nil {
						continue
					}
					c.atomicObjs[key] = d.owner.Name.Name + "." + name.Name
					c.atomicNames = append(c.atomicNames, pkg.Path+"."+d.owner.Name.Name+"."+name.Name)
					if prev := c.atomicOwners[typeKey(tn)]; prev != "" {
						c.atomicOwners[typeKey(tn)] = prev + ", " + name.Name
					} else {
						c.atomicOwners[typeKey(tn)] = name.Name
					}
				}
			case *ast.ValueSpec:
				if d.word != "atomic" {
					continue
				}
				for _, name := range h.Names {
					key := pkg.Path + "." + name.Name
					if _, dup := c.atomicObjs[key]; dup || pkg.Info.Defs[name] == nil {
						continue
					}
					c.atomicObjs[key] = name.Name
					c.atomicNames = append(c.atomicNames, key)
				}
			}
		}
	}
	sort.Strings(c.shardNames)
	sort.Strings(c.crossNames)
	sort.Strings(c.atomicNames)
	sort.Slice(c.layouts, func(i, j int) bool {
		a, b := c.layouts[i], c.layouts[j]
		if a.tn.Pkg().Path() != b.tn.Pkg().Path() {
			return a.tn.Pkg().Path() < b.tn.Pkg().Path()
		}
		return a.tn.Name() < b.tn.Name()
	})
	return c
}

// ownedIn reports the shard-owned type reachable from t by unwrapping
// pointers, slices, arrays, and map values — the container shapes a
// value escapes through. Ownership is deliberately not transitive
// through struct fields: a wrapper struct (like the single-shard TAQ
// facade today, or a future shard header) is its own ownership domain
// and must carry its own annotation.
func ownedIn(t types.Type, owned map[string]bool, depth int) *types.TypeName {
	if t == nil || depth > 8 {
		return nil
	}
	switch u := t.(type) {
	case *types.Named:
		if owned[typeKey(u.Obj())] {
			return u.Obj()
		}
		return ownedIn(u.Underlying(), owned, depth+1)
	case *types.Pointer:
		return ownedIn(u.Elem(), owned, depth+1)
	case *types.Slice:
		return ownedIn(u.Elem(), owned, depth+1)
	case *types.Array:
		return ownedIn(u.Elem(), owned, depth+1)
	case *types.Map:
		return ownedIn(u.Elem(), owned, depth+1)
	}
	return nil
}

// typeKey identifies a named type across the source/export-data
// identity split: "taq/internal/core.tracker".
func typeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// atomicVarKey returns the contracts key for a package-level variable,
// or "" when obj is anything else (locals and fields never match, so a
// local shadowing an annotated var cannot trip the analyzer).
func atomicVarKey(obj types.Object) string {
	if v, ok := obj.(*types.Var); !ok || !isPkgLevel(v) {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// atomicFieldKey returns the contracts key for a field selected from a
// receiver of type recv, or "" when recv is not a named struct.
func atomicFieldKey(recv types.Type, field string) string {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	return typeKey(n.Obj()) + "." + field
}

// ownerLabel names a shard-owned type for diagnostics: "core.tracker".
func ownerLabel(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Name() + "." + tn.Name()
}

// modulePathOf returns the leading path element, enough to separate
// this module's packages from stdlib and external leaves.
func modulePathOf(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

// WriteAnnotations prints the shardowned/crossshard/atomic/layout
// annotation inventory. The output is byte-stable so CI can diff it
// against the committed docs/taq-annotations.txt baseline and catch an
// annotation silently added or dropped — the same drift gate the
// hotpath closure has.
func WriteAnnotations(w io.Writer, pkgs []*Package) error {
	c := NewProgram(pkgs).contractsIndex()
	for _, n := range c.shardNames {
		if _, err := fmt.Fprintf(w, "shardowned %s\n", n); err != nil {
			return err
		}
	}
	for _, n := range c.crossNames {
		if _, err := fmt.Fprintf(w, "crossshard %s\n", n); err != nil {
			return err
		}
	}
	for _, n := range c.atomicNames {
		if _, err := fmt.Fprintf(w, "atomic %s\n", n); err != nil {
			return err
		}
	}
	for _, pin := range c.layouts {
		if _, err := fmt.Fprintf(w, "layout %s.%s %s\n", pin.tn.Pkg().Path(), pin.tn.Name(), pin.spec.canonical()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "total %d shardowned, %d crossshard, %d atomic, %d layout\n",
		len(c.shardNames), len(c.crossNames), len(c.atomicNames), len(c.layouts))
	return err
}
