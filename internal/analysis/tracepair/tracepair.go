// Package tracepair implements the odinvet analyzer guarding the tracing
// layer's two structural invariants:
//
//  1. Span openers — functions returning an end-closure, like
//     comm.(*Comm).collSpan — must have their closure called where it is
//     made: `defer c.collSpan(...)()`, or `c.collSpan(...)()` for a
//     zero-length span. A closure that is dropped, or bound and then
//     skipped on some path, leaves a span open and skews every duration
//     downstream of it in the exported timeline; the one form needs no
//     path analysis to rule that out.
//  2. Inside package comm, the KindSend trace-event emission must stay
//     lexically adjacent to the stats.record call that counts the same
//     logical send. DESIGN.md pins "one send event per logical Send";
//     trace_reconcile_test checks it dynamically by diffing the
//     trace-derived message matrix against comm.Stats, and this analyzer
//     keeps refactors from separating the two sites in the first place.
package tracepair

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"odinhpc/internal/analysis"
)

// Analyzer enforces span-closure and send/record adjacency.
var Analyzer = &analysis.Analyzer{
	Name: "tracepair",
	Doc: "span-opener end closures must be called where they are made " +
		"(defer opener(...)() or opener(...)()), and comm's KindSend " +
		"emission must stay adjacent to stats.record",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		checkSpanClosures(pass, file)
		if analysis.PkgIs(pass.Pkg.Path(), "comm") {
			checkSendAdjacency(pass, file)
		}
	}
	return nil
}

// --- rule 1: span closures -------------------------------------------------

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

// --- rule 2: send/record adjacency ----------------------------------------

// checkSendAdjacency enforces that every statement emitting a KindSend
// trace event has a neighboring statement recording the same send in
// comm.Stats. The emission is typically nested — Send wraps its Emit in an
// `if s := trace.Active(); s != nil` guard — so adjacency at ANY enclosing
// block level satisfies the rule: the statement containing the emit only
// needs a record-bearing sibling (or to contain the record itself) at one
// nesting depth.
func checkSendAdjacency(pass *analysis.Pass, file *ast.File) {
	satisfied := map[token.Pos]bool{}
	seen := map[token.Pos]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range block.List {
			pos, found := sendEmitPos(pass, s)
			if !found {
				continue
			}
			seen[pos] = true
			prevOK := i > 0 && hasStatsRecord(block.List[i-1])
			nextOK := i+1 < len(block.List) && hasStatsRecord(block.List[i+1])
			selfOK := hasStatsRecord(s)
			if prevOK || nextOK || selfOK {
				satisfied[pos] = true
			}
		}
		return true
	})
	var poss []token.Pos
	for pos := range seen {
		if !satisfied[pos] {
			poss = append(poss, pos)
		}
	}
	sort.Slice(poss, func(i, j int) bool { return poss[i] < poss[j] })
	for _, pos := range poss {
		pass.Reportf(pos, "KindSend trace emission without an adjacent stats.record call; the trace-derived message matrix must reconcile with comm.Stats (one send event per logical Send)")
	}
}

// sendEmitPos reports whether stmt contains an Emit call whose event literal
// carries Kind: KindSend. Function literals are not skipped here: an Emit
// wrapped in a closure inside the statement is still this statement's
// emission site.
func sendEmitPos(pass *analysis.Pass, stmt ast.Stmt) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Emit" || len(call.Args) != 1 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Kind" {
				continue
			}
			if kindName(kv.Value) == "KindSend" {
				pos, found = call.Pos(), true
				return false
			}
		}
		return true
	})
	return pos, found
}

// kindName extracts the identifier naming an event kind: KindSend or
// trace.KindSend.
func kindName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// hasStatsRecord reports whether stmt contains a `<...>.record(...)` or
// `<...>.Record(...)` call — the comm.Stats accounting site.
func hasStatsRecord(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "record" || sel.Sel.Name == "Record" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
