package odinhpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testSeams are the exported declarations under internal/ that only tests
// call, kept on purpose, keyed by package directory (below internal/),
// receiver type and name. Each declaration states its reason once, in a
// "// Test seam: <reason>" doc line. Everything else exported needs a caller
// in a command, an example, an experiment, a served job or another package.
var testSeams = map[string]bool{
	"serve.Quotas.SetClock":        true,
	"exec.WithGrain":               true,
	"sparse.CSR.Dense":             true,
	"tpetra.GatherPlan.OutLen":     true,
	"comm.StatsSnapshot.MsgCount":  true,
	"comm.StatsSnapshot.ByteCount": true,
	"trace.Session.MessageMatrix":  true,
	"comm.Comm.Probe":              true,
	"fusion.Expr.Leaves":           true,
	"core.DecodeControl":           true,
	"analysis/tagregistry.Lookup":  true,
}

// skippedNames are methods the standard library calls through an interface.
var skippedNames = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// seamKey names a declaration as the testSeams map does: "pkg.Func" or
// "pkg.Recv.Method", pkg being the directory below internal/.
func seamKey(dir string, fd *ast.FuncDecl) string {
	key := strings.TrimPrefix(filepath.ToSlash(dir), "internal/") + "."
	if recv := recvName(fd); recv != "" {
		key += recv + "."
	}
	return key + fd.Name.Name
}

// recvName is the name of a method's receiver type, "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch r := typ.(type) {
	case *ast.IndexExpr:
		typ = r.X
	case *ast.IndexListExpr:
		typ = r.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
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

// moduleFile is one parsed non-test Go file of the module.
type moduleFile struct {
	dir string
	f   *ast.File
}

// module is every non-test Go file of the module, parsed.
type module struct {
	fset  *token.FileSet
	files []moduleFile
}

// parseModule parses every non-test Go file of the module once, testdata and
// dot-directories excluded. Both caller rules below scan its result.
var parseModule = sync.OnceValues(func() (module, error) {
	m := module{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.files = append(m.files, moduleFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	return m, err
})

// testHelper reports whether fd takes a parameter of a type from package
// testing (*testing.T, testing.TB, ...): a helper of a test-support package
// such as chaostest, which only a test can call.
func testHelper(fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		typ := field.Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if sel, ok := typ.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "testing" {
				return true
			}
		}
	}
	return false
}

// modulePath is the import path prefix of the module's own packages.
const modulePath = "odinhpc/"

// TestEveryExportHasACaller enforces the rule that an exported function or
// method under internal/ has a caller outside the tests: some non-test file
// names it, other than its own declaration. A package-level function is
// named by its package: a file of another package calls it as pkg.Name,
// pkg being the file's import name for the declaring directory, and a file
// of its own directory names it bare. A method is matched by name alone, so
// it counts as called when any identifier of that name appears. A test
// helper (testHelper) needs no such caller; otherwise only the declarations
// testSeams lists are exempt.
func TestEveryExportHasACaller(t *testing.T) {
	m, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	pkgNames := map[string]string{} // directory -> package name
	for _, mf := range m.files {
		pkgNames[mf.dir] = mf.f.Name.Name
	}
	// uses counts identifiers by name, for methods; funcUses counts
	// references to package-level functions by "dir.Name".
	uses, funcUses := map[string]int{}, map[string]int{}
	type decl struct {
		key, name, pos, reason string
		funcKey                string // "dir.Name" of a package-level function, "" for a method
	}
	var exported []decl
	for _, mf := range m.files {
		declNames := map[*ast.Ident]bool{}
		for _, dd := range mf.f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(mf.dir, "internal/") && !testHelper(fd) {
				d := decl{key: seamKey(mf.dir, fd), name: fd.Name.Name,
					pos: m.fset.Position(fd.Name.Pos()).String(), reason: seamReason(fd.Doc)}
				if fd.Recv == nil {
					d.funcKey = mf.dir + "." + d.name
				}
				exported = append(exported, d)
			}
		}
		imported := map[string]string{} // import name -> directory
		for _, spec := range mf.f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || !strings.HasPrefix(path, modulePath) {
				continue
			}
			dir := strings.TrimPrefix(path, modulePath)
			name := pkgNames[dir]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imported[name] = dir
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(mf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					funcUses[imported[x.Name]+"."+n.Sel.Name]++
				}
			case *ast.Ident:
				if declNames[n] {
					break
				}
				uses[n.Name]++
				if !selected[n] {
					funcUses[mf.dir+"."+n.Name]++
				}
			}
			return true
		})
	}
	used := func(d decl) bool {
		if d.funcKey == "" {
			return uses[d.name] > 0
		}
		return funcUses[d.funcKey] > 0
	}
	declared := map[string]bool{}
	var dead []string
	for _, d := range exported {
		if !testSeams[d.key] {
			if !used(d) && !skippedNames[d.name] {
				dead = append(dead, d.pos+": "+d.key)
			}
			continue
		}
		declared[d.key] = true
		switch {
		case used(d):
			t.Errorf("test seam %s now has a caller outside the tests: drop its entry", d.key)
		case d.reason == "":
			t.Errorf("test seam %s: its declaration lacks a // Test seam: <reason> line", d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside the tests: delete it, or give it one", d)
	}
	for key := range testSeams {
		if !declared[key] {
			t.Errorf("test seam %s is no longer declared under internal/: drop its entry", key)
		}
	}
}

// pkgDecl is one package-level declaration: a function, a method, a type, or
// one name of a var or const spec.
type pkgDecl struct {
	name, recv string // recv is a method's receiver type, "" otherwise
	isType     bool
	pos        string
	refs       map[string]int // identifiers it mentions, declared names excluded
}

func (d *pkgDecl) key() string {
	if d.recv == "" {
		return d.name
	}
	return d.recv + "." + d.name
}

// pkgDecls lists the package-level declarations of one file.
func pkgDecls(fset *token.FileSet, f *ast.File) []*pkgDecl {
	var out []*pkgDecl
	add := func(name *ast.Ident, recv string, isType bool, node ast.Node, declared ...*ast.Ident) {
		refs := map[string]int{}
		skip := map[*ast.Ident]bool{}
		for _, id := range declared {
			skip[id] = true
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] {
				refs[id.Name]++
			}
			return true
		})
		out = append(out, &pkgDecl{name.Name, recv, isType, fset.Position(name.Pos()).String(), refs})
	}
	for _, dd := range f.Decls {
		switch dd := dd.(type) {
		case *ast.FuncDecl:
			add(dd.Name, recvName(dd), false, dd, dd.Name)
		case *ast.GenDecl:
			for _, spec := range dd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "", true, spec, spec.Name)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						add(name, "", false, spec, spec.Names...)
					}
				}
			}
		}
	}
	return out
}

// testOnlyDecls returns the declarations of one package that nothing outside
// the tests reaches. Exported names, init, main and blank names are roots;
// any other declaration lives while a live declaration of the package
// mentions it. A declaration's mentions of itself do not count, nor do a
// type's own methods' mentions of the type, and a dead type's methods are
// dead whatever their names. The sweep repeats until nothing changes, so a
// chain of dead code dies whole.
func testOnlyDecls(decls []*pkgDecl) []*pkgDecl {
	dead := map[*pkgDecl]bool{}
	typeDead := func(name string) bool {
		found := false
		for _, d := range decls {
			if d.isType && d.name == name {
				if !dead[d] {
					return false
				}
				found = true
			}
		}
		return found
	}
	used := func(d *pkgDecl) bool {
		for _, e := range decls {
			if dead[e] || e.key() == d.key() || (d.isType && e.recv == d.name) {
				continue
			}
			if e.refs[d.name] > 0 {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if dead[d] {
				continue
			}
			isRoot := d.name == "_" || d.name == "init" || (d.name == "main" && d.recv == "") ||
				ast.IsExported(d.name)
			if (d.recv != "" && typeDead(d.recv)) || (!isRoot && !used(d)) {
				dead[d] = true
				changed = true
			}
		}
	}
	var out []*pkgDecl
	for _, d := range decls {
		if dead[d] {
			out = append(out, d)
		}
	}
	return out
}

// TestEveryUnexportedHasACaller enforces the same rule for unexported code,
// everywhere in the module: a package-level func, method, type, var or const
// that only tests reach is deleted, or moves into a _test.go file. An
// unexported name is package-scoped, so only the non-test files of its own
// directory can use it. There is no exemption.
func TestEveryUnexportedHasACaller(t *testing.T) {
	m, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	byDir := map[string][]*pkgDecl{}
	for _, mf := range m.files {
		byDir[mf.dir] = append(byDir[mf.dir], pkgDecls(m.fset, mf.f)...)
	}
	var dead []string
	for dir, decls := range byDir {
		for _, d := range testOnlyDecls(decls) {
			dead = append(dead, d.pos+": "+dir+"."+d.key())
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached only from tests: delete it, or move it into a _test.go file", d)
	}
}
