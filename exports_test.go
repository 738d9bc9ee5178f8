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
	key  string
	pos  token.Position
	doc  *ast.CommentGroup
	uses []types.Object // what its source refers to, generic origins for instances
}

// callGraph is every package-level declaration of a module's non-test
// packages, type-checked, with what each refers to and whether it is live.
type callGraph struct {
	decls map[types.Object]*decl
	byKey map[string]types.Object
	// viaIface maps a type to its methods that an interface it (or its
	// pointer) implements names: whoever holds the type as that interface
	// may call them.
	viaIface map[types.Object][]types.Object
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
	loader := analysis.NewLoader(modPath, root, "", false)
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
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addIfaces := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
	}
	addIfaces(stdPkg)

	var roots []types.Object
	g := &callGraph{decls: map[types.Object]*decl{}, byKey: map[string]types.Object{},
		viaIface: map[types.Object][]types.Object{}, live: map[types.Object]bool{}}
	for _, pkg := range pkgs {
		addIfaces(pkg.Types)
		testSupport := false
		for _, imp := range pkg.Types.Imports() {
			addIfaces(imp)
			testSupport = testSupport || imp.Path() == "testing"
		}
		prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, modPath+"/"), "internal/") + "."
		add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup, isRoot bool) {
			obj := pkg.Info.Defs[id]
			d := &decl{key: prefix + id.Name, pos: pkg.Fset.Position(id.Pos()), doc: doc}
			if fn, ok := obj.(*types.Func); ok && analysis.RecvTypeName(fn) != "" {
				d.key = prefix + analysis.RecvTypeName(fn) + "." + id.Name
			}
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := pkg.Info.Uses[n]; obj != nil {
						d.uses = append(d.uses, origin(obj))
					}
				case *ast.InterfaceType:
					ifaces[pkg.Info.TypeOf(n).(*types.Interface)] = true
				}
				return true
			})
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
	for obj := range g.decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for it := range ifaces {
			if missing, _ := types.MissingMethod(ptr, it, true); missing != nil || it.NumMethods() == 0 {
				continue
			}
			for i := range it.NumMethods() {
				m := it.Method(i)
				impl, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				g.viaIface[obj] = append(g.viaIface[obj], origin(impl))
			}
		}
	}
	for _, obj := range roots {
		g.mark(obj)
	}
	return g, nil
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

// mark makes obj live, then everything it refers to and, for a type, every
// method an interface it implements names.
func (g *callGraph) mark(obj types.Object) {
	d := g.decls[obj]
	if d == nil || g.live[obj] {
		return
	}
	g.live[obj] = true
	for _, u := range d.uses {
		g.mark(u)
	}
	for _, m := range g.viaIface[obj] {
		g.mark(m)
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
// objects go/types resolves each reference to, or as a method of a reached
// type that an interface the type implements names. A declaration only tests
// reach is deleted, or moves into a _test.go file; the only exemption is the
// testSeams map.
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
