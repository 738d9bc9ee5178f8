// Package tracepair implements the odinvet analyzer guarding the tracing
// layer's span structure: span openers — functions returning an
// end-closure, like comm.(*Comm).collSpan — must have their closure called
// where it is made: `defer c.collSpan(...)()`, or `c.collSpan(...)()` for a
// zero-length span. A closure that is dropped, or bound and then skipped on
// some path, leaves a span open and skews every duration downstream of it in
// the exported timeline; the one form needs no path analysis to rule that
// out.
package tracepair

import (
	"go/ast"
	"go/types"
	"strings"

	"odinhpc/internal/analysis"
)

// Analyzer enforces span closure.
var Analyzer = &analysis.Analyzer{
	Name: "tracepair",
	Doc: "span-opener end closures must be called where they are made " +
		"(defer opener(...)() or opener(...)())",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		checkSpanClosures(pass, file)
	}
	return nil
}

// isSpanOpener reports whether call invokes a span opener: a function or
// method whose name ends in "Span" and whose only result is a func() end
// closure.
func isSpanOpener(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || !strings.HasSuffix(fn.Name(), "Span") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	rt, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
	return ok && rt.Params().Len() == 0 && rt.Results().Len() == 0
}

// checkSpanClosures reports every span-opener call whose end closure is not
// called where it is made. The two accepted forms are `defer opener(...)()`
// and the zero-length `opener(...)()`; the statement is visited before the
// opener call inside it, so the call is marked closed by then.
func checkSpanClosures(pass *analysis.Pass, file *ast.File) {
	closed := map[*ast.CallExpr]bool{}
	markClosed := func(e ast.Expr) {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if inner, ok := ast.Unparen(call.Fun).(*ast.CallExpr); ok {
				closed[inner] = true
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			markClosed(n.Call)
		case *ast.ExprStmt:
			markClosed(n.X)
		case *ast.CallExpr:
			if !closed[n] && isSpanOpener(pass, n) {
				pass.Reportf(n.Pos(), "span opener's end closure is not called where it is made; use `defer %s()`", exprText(n))
			}
		}
		return true
	})
}

// exprText renders a short source-ish form of a call for diagnostics.
func exprText(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name + "(...)"
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name + "(...)"
		}
		return f.Sel.Name + "(...)"
	}
	return "span(...)"
}
