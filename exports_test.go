package odinhpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are the exported declarations under internal/ that only tests
// call, kept on purpose, keyed by package directory (below internal/),
// receiver type and name. Each declaration states its reason once, in a
// "// Test seam: <reason>" doc line. Everything else exported needs a caller
// in a command, an example, an experiment, a served job or another package.
var testSeams = map[string]bool{
	"fusion.SetSuperinstructions":  true,
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
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
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
			key += id.Name + "."
		}
	}
	return key + fd.Name.Name
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

// TestEveryExportHasACaller enforces the rule that an exported function or
// method under internal/ has a caller outside the tests: some non-test file
// names it, other than its own declaration. The scan is by name, so a
// method counts as called when any identifier of that name appears; only
// the declarations testSeams lists are exempt.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ key, name, pos, reason string }
	var exported []decl
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
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				exported = append(exported, decl{seamKey(filepath.Dir(path), fd), fd.Name.Name,
					fset.Position(fd.Name.Pos()).String(), seamReason(fd.Doc)})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var dead []string
	for _, d := range exported {
		if !testSeams[d.key] {
			if uses[d.name] == 0 && !skippedNames[d.name] {
				dead = append(dead, d.pos+": "+d.key)
			}
			continue
		}
		declared[d.key] = true
		switch {
		case uses[d.name] > 0:
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
