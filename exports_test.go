package odinhpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"odinhpc/internal/analysis"
)

// testSeams are the declarations under internal/ that only tests reach,
// kept on purpose, keyed as callGraph keys them: "pkg.Name" or
// "pkg.Recv.Name", pkg being the package directory below internal/. Each
// declaration states its reason once, in a "// Test seam: <reason>" doc line.
var testSeams = map[string]bool{
	"serve.Quotas.SetClock":              true,
	"exec.WithGrain":                     true,
	"sparse.CSR.Dense":                   true,
	"sparse.ChooseFormat":                true,
	"tpetra.GatherPlan.OutLen":           true,
	"comm.StatsSnapshot.MsgCount":        true,
	"comm.StatsSnapshot.ByteCount":       true,
	"trace.Session.MessageMatrix":        true,
	"comm.Comm.Probe":                    true,
	"fusion.Expr.Leaves":                 true,
	"core.DecodeControl":                 true,
	"analysis/tagregistry.Lookup":        true,
	"seamless/compile/exprtable.Sources": true,
}

// seamReason returns the reason a "// Test seam:" doc line gives, or "".
func seamReason(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if reason, ok := strings.CutPrefix(line, "Test seam:"); ok {
			return strings.TrimSpace(reason)
		}
	}
	return ""
}

// decl is one package-level declaration: a func, a method, a type, or one
// name of a var or const spec.
type decl struct {
	key   string
	pos   token.Position
	doc   *ast.CommentGroup
	uses  []types.Object // what its source refers to, generic origins for instances
	convs []conversion   // where its source turns a concrete value into an interface
}

// conversion is a value of concrete type src becoming an interface dst: an
// assignment, an argument, a return, an element of a composite literal, a
// send, an explicit conversion, or a type argument meeting its constraint.
type conversion struct {
	src types.Type
	dst *types.Interface
}

// callGraph is every package-level declaration of a module's non-test
// packages, type-checked, with what each refers to and whether it is live.
type callGraph struct {
	decls map[types.Object]*decl
	byKey map[string]types.Object
	// asserted are the interfaces an interface value may be asserted to
	// where no conversion to them is written: error, those declared outside
	// the module (whose code asserts what it is handed), and those a type
	// assertion or type switch of the module names.
	asserted []*types.Interface
	seen     map[string]bool // types already checked against asserted
	live     map[types.Object]bool
	seamErrs []string // what is wrong with testSeams, set by moduleGraph
}

// stdAsserted is the interface errors.Is and errors.As walk a chain
// through, which the standard library asserts without naming it.
const stdAsserted = `package std
type unwrap interface{ Unwrap() error }`

// loadGraph type-checks every non-test package of the module at dir, testdata
// and dot-directories excluded, and marks what its roots reach. The roots are
// every declaration of a package main and of a test-support package (one
// whose files import testing), every init and every blank declaration: what
// runs without a caller.
func loadGraph(dir string) (*callGraph, error) {
	root, modPath, err := analysis.FindModule(dir)
	if err != nil {
		return nil, err
	}
	loader := analysis.NewLoader(modPath, root, nil, false)
	var pkgs []*analysis.Package
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		loaded, err := loader.LoadDir(path)
		pkgs = append(pkgs, loaded...)
		return err
	})
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, err := parser.ParseFile(fset, "std.go", stdAsserted, 0)
	if err != nil {
		return nil, err
	}
	stdPkg, err := new(types.Config).Check("std", fset, []*ast.File{std}, nil)
	if err != nil {
		return nil, err
	}
	asserted := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addAsserted := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				asserted[tn.Type().Underlying().(*types.Interface)] = true
			}
		}
	}
	addAsserted(stdPkg)

	var roots []types.Object
	g := &callGraph{decls: map[types.Object]*decl{}, byKey: map[string]types.Object{},
		seen: map[string]bool{}, live: map[types.Object]bool{}}
	for _, pkg := range pkgs {
		testSupport := false
		for _, imp := range pkg.Types.Imports() {
			if !strings.HasPrefix(imp.Path(), modPath+"/") {
				addAsserted(imp)
			}
			testSupport = testSupport || imp.Path() == "testing"
		}
		prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, modPath+"/"), "internal/") + "."
		add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup, isRoot bool) {
			obj := pkg.Info.Defs[id]
			d := &decl{key: prefix + id.Name, pos: pkg.Fset.Position(id.Pos()), doc: doc}
			if fn, ok := obj.(*types.Func); ok && analysis.RecvTypeName(fn) != "" {
				d.key = prefix + analysis.RecvTypeName(fn) + "." + id.Name
			}
			d.uses, d.convs = references(pkg.Info, node, asserted)
			g.decls[obj], g.byKey[d.key] = d, obj
			if isRoot || id.Name == "_" || pkg.Name == "main" || testSupport {
				roots = append(roots, obj)
			}
		}
		for _, f := range pkg.Files {
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					add(dd.Name, dd, dd.Doc, dd.Recv == nil && dd.Name.Name == "init")
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec, docOf(spec.Doc, dd), false)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								add(name, spec, docOf(spec.Doc, dd), false)
							}
						}
					}
				}
			}
		}
	}
	for it := range asserted {
		if it.NumMethods() > 0 {
			g.asserted = append(g.asserted, it)
		}
	}
	for _, obj := range roots {
		g.mark(obj)
	}
	return g, nil
}

// references returns what node's source refers to and where it converts a
// concrete value to an interface, and adds to asserted the interfaces its
// type assertions and type switches name.
func references(info *types.Info, node ast.Node, asserted map[*types.Interface]bool) (uses []types.Object, convs []conversion) {
	toIface := func(dst, src types.Type) {
		if dst == nil || src == nil { // a blank identifier: nothing is recorded
			return
		}
		it, ok := dst.Underlying().(*types.Interface)
		if _, tuple := src.(*types.Tuple); ok && !tuple && !types.IsInterface(src) {
			convs = append(convs, conversion{src, it})
		}
	}
	conv := func(dst types.Type, e ast.Expr) { toIface(dst, info.TypeOf(e)) }
	// assign converts values to dst(0), ..., dst(n-1): one expression each,
	// or one multi-valued call.
	assign := func(n int, dst func(i int) types.Type, values []ast.Expr) {
		if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok && len(values) == 1 && tuple.Len() == n {
			for i := range n {
				toIface(dst(i), tuple.At(i).Type())
			}
		} else if len(values) == n {
			for i, v := range values {
				conv(dst(i), v)
			}
		}
	}
	assert := func(e ast.Expr) {
		if t := info.TypeOf(e); t != nil && types.IsInterface(t) {
			asserted[t.Underlying().(*types.Interface)] = true
		}
	}
	var stack []ast.Node // the enclosing nodes, innermost last
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				uses = append(uses, origin(obj))
				if inst, ok := info.Instances[n]; ok {
					tps := typeParams(obj)
					for i := range tps.Len() {
						toIface(tps.At(i).Constraint(), inst.TypeArgs.At(i))
					}
				}
			}
		case *ast.AssignStmt:
			assign(len(n.Lhs), func(i int) types.Type { return info.TypeOf(n.Lhs[i]) }, n.Rhs)
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) > 0 {
				assign(len(n.Names), func(int) types.Type { return info.TypeOf(n.Type) }, n.Values)
			}
		case *ast.ReturnStmt:
			if sig := enclosingSig(info, stack); sig != nil && len(n.Results) > 0 {
				assign(sig.Results().Len(), func(i int) types.Type { return sig.Results().At(i).Type() }, n.Results)
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				conv(tv.Type, n.Args[0])
			} else if sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature); ok && len(n.Args) > 0 {
				params, last := sig.Params(), sig.Params().Len()-1
				nargs := len(n.Args)
				if tuple, ok := info.TypeOf(n.Args[0]).(*types.Tuple); ok {
					nargs = tuple.Len()
				}
				assign(nargs, func(i int) types.Type {
					switch {
					case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
						return params.At(last).Type().(*types.Slice).Elem()
					case i < params.Len():
						return params.At(i).Type()
					}
					return nil
				}, n.Args)
			}
		case *ast.CompositeLit:
			compositeConvs(info, n, conv)
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				conv(ch.Elem(), n.Value)
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				assert(n.Type)
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range n.Body.List {
				for _, e := range cc.(*ast.CaseClause).List {
					assert(e)
				}
			}
		}
		return true
	})
	return uses, convs
}

// typeParams are the type parameters of a generic func or type.
func typeParams(obj types.Object) *types.TypeParamList {
	if named, ok := obj.Type().(*types.Named); ok {
		return named.TypeParams()
	}
	if sig, ok := obj.Type().(*types.Signature); ok {
		return sig.TypeParams()
	}
	return nil
}

// enclosingSig is the signature of the innermost function around the last
// node of stack, or nil.
func enclosingSig(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return info.TypeOf(f).(*types.Signature)
		case *ast.FuncDecl:
			return info.Defs[f.Name].Type().(*types.Signature)
		}
	}
	return nil
}

// compositeConvs calls conv on each element of lit with the type its slot
// holds.
func compositeConvs(info *types.Info, lit *ast.CompositeLit, conv func(types.Type, ast.Expr)) {
	t := info.TypeOf(lit).Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	for i, elt := range lit.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		switch t := t.(type) {
		case *types.Struct:
			if !keyed {
				conv(t.Field(i).Type(), elt)
			} else if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
				conv(f.Type(), kv.Value)
			}
		case *types.Map:
			conv(t.Key(), kv.Key)
			conv(t.Elem(), kv.Value)
		case interface{ Elem() types.Type }: // array or slice
			if keyed {
				elt = kv.Value
			}
			conv(t.Elem(), elt)
		}
	}
}

// docOf is a spec's doc comment, or its declaration's when the spec has none.
func docOf(doc *ast.CommentGroup, gd *ast.GenDecl) *ast.CommentGroup {
	if doc == nil {
		return gd.Doc
	}
	return doc
}

// origin maps an instantiated generic func or var onto its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// mark makes obj live, then everything it refers to, and the methods that
// its conversions let an interface call.
func (g *callGraph) mark(obj types.Object) {
	d := g.decls[obj]
	if d == nil || g.live[obj] {
		return
	}
	g.live[obj] = true
	for _, u := range d.uses {
		g.mark(u)
	}
	for _, c := range d.convs {
		g.markMethods(c.src, c.dst)
		g.markAsserted(c.src)
	}
}

// markMethods marks the methods of t that interface it names.
func (g *callGraph) markMethods(t types.Type, it *types.Interface) {
	for i := range it.NumMethods() {
		m := it.Method(i)
		if impl, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); impl != nil {
			g.mark(origin(impl))
		}
	}
}

// markAsserted marks the methods of t that an asserted interface it
// implements names, for t and for what reflection reaches from it: the
// types of its exported fields, and its elements and keys.
func (g *callGraph) markAsserted(t types.Type) {
	key := types.TypeString(t, nil)
	if g.seen[key] {
		return
	}
	g.seen[key] = true
	for _, it := range g.asserted {
		if types.Implements(t, it) {
			g.markMethods(t, it)
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if f := u.Field(i); f.Exported() {
				g.markAsserted(f.Type())
			}
		}
	case *types.Map:
		g.markAsserted(u.Key())
		g.markAsserted(u.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		g.markAsserted(u.Elem())
	}
}

// dead lists the declarations nothing live reaches whose names are exported
// (or, with exported false, unexported), by position.
func (g *callGraph) dead(exported bool) []*decl {
	var out []*decl
	for obj, d := range g.decls {
		if !g.live[obj] && obj.Exported() == exported {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos.String() < out[j].pos.String() })
	return out
}

// moduleGraph is this module's call graph with the testSeams marked live,
// loaded once for both caller tests, and what is wrong with testSeams.
var moduleGraph = sync.OnceValues(func() (*callGraph, error) {
	g, err := loadGraph(".")
	if err != nil {
		return nil, err
	}
	var seams []types.Object
	for key := range testSeams {
		obj, ok := g.byKey[key]
		switch {
		case !ok:
			g.seamErrs = append(g.seamErrs, "test seam "+key+" is no longer declared: drop its entry")
			continue
		case g.live[obj]:
			g.seamErrs = append(g.seamErrs, "test seam "+key+" now has a caller outside the tests: drop its entry")
		case seamReason(g.decls[obj].doc) == "":
			g.seamErrs = append(g.seamErrs, "test seam "+key+": its declaration lacks a // Test seam: <reason> line")
		}
		seams = append(seams, obj)
	}
	sort.Strings(g.seamErrs)
	for _, obj := range seams {
		g.mark(obj)
	}
	return g, nil
})

// TestEveryExportHasACaller enforces the caller rule for exported names, and
// checks testSeams. The rule: a package-level func, method, type, var or const
// is reached from outside the tests: from a root (loadGraph), through the
// objects go/types resolves each reference to, or as a method that an
// interface may call because live code converts a value of its type to one:
// to an interface naming the method, or to any interface, where the method is
// named by an interface such a value may be asserted to (callGraph.asserted).
// A declaration only tests reach is deleted, or moves into a _test.go file;
// the only exemption is the testSeams map.
func TestEveryExportHasACaller(t *testing.T) {
	g, err := moduleGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range g.seamErrs {
		t.Error(msg)
	}
	for _, d := range g.dead(true) {
		t.Errorf("%s: %s is reached only from tests: delete it, or move it into a _test.go file", d.pos, d.key)
	}
}

// TestEveryUnexportedHasACaller enforces the caller rule for unexported names.
func TestEveryUnexportedHasACaller(t *testing.T) {
	g, err := moduleGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g.dead(false) {
		t.Errorf("%s: %s is reached only from tests: delete it, or move it into a _test.go file", d.pos, d.key)
	}
}

// TestCallGraphVerdicts holds the rule to its verdict on each case of
// testdata/callers; every declaration not listed is live.
func TestCallGraphVerdicts(t *testing.T) {
	g, err := loadGraph("testdata/callers")
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{
		"shapes.Square.Area": true,  // called only through Shape
		"shapes.Leaf.node":   true,  // a sealed interface's marker
		"shapes.Grid.Equal":  true,  // called from main
		"shapes.Vec.Equal":   false, // shares only its name with Grid.Equal
		"shapes.Vec.Energy":  false, // dead, the only caller of sumSquares
		"shapes.sumSquares":  false,
		"shapes.Debug":       false, // an exported var nothing reads
		"shapes.Form.Check":  true,  // main converts a Form to Checker
		"shapes.Grid.Check":  false, // implements Checker, converted only to any
		"shapes.Vec.String":  true,  // converted to any, asserted by fmt
	}
	for key := range live {
		if _, ok := g.byKey[key]; !ok {
			t.Errorf("%s is not declared in testdata/callers", key)
		}
	}
	for obj, d := range g.decls {
		want, listed := live[d.key]
		if !listed {
			want = true
		}
		if g.live[obj] != want {
			t.Errorf("%s: %s live = %v, want %v", d.pos, d.key, g.live[obj], want)
		}
	}
}
