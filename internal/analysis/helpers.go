package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PkgIs reports whether an import path denotes the framework package with
// the given short name: either the path is the name itself (analyzer
// testdata packages are named "comm", "exec", ...) or it ends in "/name"
// ("odinhpc/internal/comm"). Matching by path shape rather than *types.Package
// identity is deliberate: the loader may typecheck the same package once as
// an analysis target and once as an import, and those are distinct objects.
func PkgIs(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// ObjPkgIs reports whether obj is declared in the framework package name
// (see PkgIs). Objects from the universe scope (builtins) have no package.
func ObjPkgIs(obj types.Object, name string) bool {
	return obj != nil && obj.Pkg() != nil && PkgIs(obj.Pkg().Path(), name)
}

// Callee resolves the static callee of call, unwrapping parentheses and
// generic instantiation. It returns nil for dynamic calls (function values),
// builtins, and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// CalleeBuiltin returns the name of the builtin called by call ("append",
// "make", ...) or "" if the callee is not a builtin.
func CalleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// RecvTypeName returns the name of fn's receiver's named type ("Comm" for
// func (c *Comm) Send), or "" for package-level functions.
func RecvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// namedTypeName unwraps pointers and returns the underlying named (or
// generic-instance) type's name, or "".
func namedTypeName(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	}
	return ""
}

// FuncScopes walks the top-level function declarations of file, calling fn
// with each declaration's body (FuncDecl bodies only; nested FuncLits are
// part of their enclosing declaration's tree and are visited by the
// analyzers themselves where they matter).
func FuncScopes(file *ast.File, fn func(decl *ast.FuncDecl)) {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd)
		}
	}
}
