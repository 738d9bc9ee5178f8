package odinhpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCommHasNoReflectOrGob holds the comm package's non-test files to its
// closed payload set: Send copies, Stats sizes and the tcp codec encodes and
// decodes a payload through comm.Elem's kinds table (payload.go) alone. A
// reflect or encoding/gob import is how a second path would come back — a
// reflection copy or a gob fallback that one transport takes and another
// does not.
func TestCommHasNoReflectOrGob(t *testing.T) {
	paths, err := filepath.Glob("internal/comm/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		n++
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "reflect" || p == "encoding/gob" {
				t.Errorf("%s imports %s", path, p)
			}
		}
	}
	if n == 0 {
		t.Fatal("no non-test file in internal/comm")
	}
}

// TestCommAPIIsTyped holds comm's exported surface to its typed payloads: no
// exported function, method, interface method or struct field of a non-test
// file takes, returns or holds an any (or interface{}). A message's elements
// are a []T of a comm.Elem type from Send to the receive; an untyped
// parameter is how a boxed route, and the type assertions that read it,
// would come back.
func TestCommAPIIsTyped(t *testing.T) {
	paths, err := filepath.Glob("internal/comm/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	untyped := func(name string, fields ...*ast.FieldList) {
		for _, fl := range fields {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				ast.Inspect(f.Type, func(n ast.Node) bool {
					switch e := n.(type) {
					case *ast.Ident:
						if e.Name == "any" {
							t.Errorf("%s: %s has an any", fset.Position(e.Pos()), name)
						}
					case *ast.InterfaceType:
						if len(e.Methods.List) == 0 {
							t.Errorf("%s: %s has an interface{}", fset.Position(e.Pos()), name)
						}
					}
					return true
				})
			}
		}
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					untyped(d.Name.Name, d.Type.Params, d.Type.Results)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					switch typ := ts.Type.(type) {
					case *ast.StructType:
						for _, field := range typ.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									untyped(ts.Name.Name+"."+name.Name, &ast.FieldList{List: []*ast.Field{field}})
								}
							}
						}
					case *ast.InterfaceType:
						for _, m := range typ.Methods.List {
							if fn, ok := m.Type.(*ast.FuncType); ok && len(m.Names) == 1 && m.Names[0].IsExported() {
								untyped(ts.Name.Name+"."+m.Names[0].Name, fn.Params, fn.Results)
							}
						}
					}
				}
			}
		}
	}
}
