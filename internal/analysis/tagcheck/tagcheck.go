// Package tagcheck implements the odinvet analyzer that polices message
// tags handed to the comm fabric's point-to-point API. Two invariants:
//
//  1. Tags must be named constants (or values computed from them), never
//     bare integer literals. A magic 7 in one kernel and a magic 7 in
//     another silently cross wires the moment both run on the same
//     communicator — the bug class the PR-2 chaos fuzzing kept finding.
//  2. Tags known at compile time must not fall into a reserved range from
//     the internal/analysis/tagregistry registry (collective-internal
//     negative tags, core.CtrlTag, slicing.HaloTag) unless the use lives
//     in the range's owning package.
package tagcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"odinhpc/internal/analysis"
)

// Range mirrors tagregistry.Range. The analyzer keeps its own copy of the
// type so the analyzer package itself stays importable from testdata-only
// contexts; cmd/odinvet and the tests inject the real registry via
// SetReserved.
type Range struct {
	Name   string
	Lo, Hi int64
	Owner  string
}

func (r Range) contains(tag int64) bool { return r.Lo <= tag && tag <= r.Hi }

// reserved is the active reservation table. The default covers the one
// structural invariant that holds in any deployment of this comm fabric —
// negative tags belong to the collectives — so the analyzer is useful even
// before the registry is injected.
var reserved = []Range{
	{Name: "comm collective-internal / wildcard (negative tags)", Lo: -1 << 62, Hi: -1, Owner: "comm"},
}

// SetReserved installs the reservation table (see tagregistry.Reserved).
func SetReserved(rs []Range) { reserved = rs }

// Analyzer enforces the tag invariants.
var Analyzer = &analysis.Analyzer{
	Name: "tagcheck",
	Doc: "message tags passed to comm's Send/Recv/RecvMsg and Comm.Probe/SendRecv must be " +
		"named constants, and compile-time tag values must not collide with " +
		"the reserved ranges in internal/analysis/tagregistry",
	Run: run,
}

// tagParam maps comm's point-to-point API to the index of its tag argument,
// keyed "Send" for a function and "Comm.Probe" for a method.
var tagParam = map[string]int{
	"Send":          2,
	"Recv":          2,
	"RecvMsg":       2,
	"Comm.Probe":    1,
	"Comm.SendRecv": 3,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.Info, call)
			if fn == nil || !analysis.ObjPkgIs(fn, "comm") {
				return true
			}
			key := fn.Name()
			if recv := analysis.RecvTypeName(fn); recv != "" {
				key = recv + "." + key
			}
			idx, ok := tagParam[key]
			if !ok || idx >= len(call.Args) {
				return true
			}
			checkTag(pass, fn.Name(), call.Args[idx])
			return true
		})
	}
	return nil
}

func checkTag(pass *analysis.Pass, method string, arg ast.Expr) {
	if lit := literalTag(pass, arg); lit != nil {
		pass.Reportf(lit.Pos(),
			"raw integer message tag in %s call; declare a named constant (and register reserved ranges in internal/analysis/tagregistry)", method)
		return
	}
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return // tag computed at run time; nothing further to check
	}
	val, ok := constant.Int64Val(tv.Value)
	if !ok {
		return
	}
	for _, r := range reserved {
		if !r.contains(val) {
			continue
		}
		if analysis.PkgIs(pass.Pkg.Path(), r.Owner) || declaredIn(pass, arg, r.Owner) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"message tag %d collides with reserved range %q owned by package %s", val, r.Name, r.Owner)
	}
}

// literalTag returns the offending literal if arg is a bare integer literal,
// possibly parenthesized, negated, or wrapped in a conversion: 7, -7,
// int(7). Named constants, variables, and computed expressions return nil.
func literalTag(pass *analysis.Pass, arg ast.Expr) ast.Expr {
	switch e := arg.(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT {
			return e
		}
	case *ast.ParenExpr:
		return literalTag(pass, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return literalTag(pass, e.X)
		}
	case *ast.CallExpr:
		// Only conversions like int32(7) propagate; tagOf(7) is a computed
		// tag and the literal is that function's business.
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return literalTag(pass, e.Args[0])
		}
	}
	return nil
}

// declaredIn reports whether arg is (or is built solely from) constants
// declared in the reserved range's owning package — comm.AnyTag is fine as
// a Recv wildcard even though -1 sits in comm's reserved range, and
// slicing's own halo exchange may use slicing.HaloTag.
func declaredIn(pass *analysis.Pass, arg ast.Expr, owner string) bool {
	ok := true
	sawConst := false
	ast.Inspect(arg, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, isConst := obj.(*types.Const); !isConst {
			return true
		}
		sawConst = true
		if !analysis.ObjPkgIs(obj, owner) {
			// A constant declared outside the owning package with a
			// colliding value is exactly the bug being hunted.
			ok = false
		}
		return true
	})
	return ok && sawConst
}
