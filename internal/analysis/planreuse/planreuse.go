// Package planreuse implements the odinvet analyzer that flags concurrent
// use of types documented single-threaded. The registry tracks the
// codebase's contracts: since plan application went concurrency-safe
// (GatherPlan/Import hold no scratch — they pack straight into the messages —
// so compiled plans are a legitimate cross-request cache), the plan types
// themselves are no longer flagged. What remains genuinely single-threaded
// is per-instance owned scratch — tpetra.CrsMatrix refills its xFull buffer
// on every Apply
// — and per-connection stream ownership in the tcp transport. The race
// detector only sees the interleaving that actually runs; this analyzer
// rejects the shape — a shared instance's method called from inside a
// goroutine — at compile time.
package planreuse

import (
	"go/ast"
	"go/token"

	"odinhpc/internal/analysis"
)

// singleThreaded registers the (package, type) pairs whose methods must not
// be called on a value shared across goroutines. Kept in the analyzer (not
// in a satellite registry) because each entry must cite the documented
// contract it enforces.
var singleThreaded = []struct {
	pkg, typ, contract string
}{
	// GatherPlan and Import are deliberately absent: a plan is immutable and
	// its application touches only the caller's buffers, so a shared plan
	// applied from many goroutines (each on its own congruent communicator)
	// is the supported serving pattern, not a bug.
	//
	// "xFull is matrix-owned Apply scratch ... refilled in place by every
	// Apply" — the matrix, unlike the plan underneath it, is single-threaded
	// per instance.
	{"tpetra", "CrsMatrix", "Apply refills the matrix-owned xFull scratch"},
	// "push hands the frame to the connection's writer goroutine" — the tcp
	// transport gives each peer connection exactly one reader and one writer
	// goroutine that own its streams and reused buffers. Those two sanctioned
	// launches carry lint:allow at the spawn site (tcpEndpoint.start); any
	// other goroutine touching a shared connection is the unlocked-shared-
	// writer shape this entry rejects.
	{"comm", "tcpConn", "each connection's streams and buffers belong to one reader and one writer goroutine"},
}

// Analyzer flags single-threaded plan types used from goroutines.
var Analyzer = &analysis.Analyzer{
	Name: "planreuse",
	Doc: "methods of types with per-instance owned scratch (tpetra.CrsMatrix, " +
		"the tcp transport's connections) must not be called on values shared " +
		"into goroutines; shareable compiled plans (GatherPlan, Import) are " +
		"exempt — their application holds no scratch of its own",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				// `go plan.Gather(...)` — method value launched directly.
				checkCall(pass, g.Call, g.Pos(), nil)
				return true
			}
			checkGoroutineBody(pass, lit)
			return true
		})
	}
	return nil
}

// checkGoroutineBody flags single-threaded method calls inside the
// goroutine whose receiver is declared outside the literal (captured, hence
// potentially shared with the spawner and sibling goroutines). Receivers
// built inside the goroutine are goroutine-local and fine.
func checkGoroutineBody(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		checkCall(pass, call, call.Pos(), func(recv ast.Expr) bool {
			id, ok := ast.Unparen(recv).(*ast.Ident)
			if !ok {
				return false // field access, index, ... — assume shared
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				return false
			}
			// Declared inside the literal's body means goroutine-local.
			// Parameters do NOT count: `go func(p *GatherPlan) {...}(plan)`
			// hands the spawner's plan (or a shallow copy sharing its
			// buffers) into the goroutine.
			return obj.Pos() >= lit.Body.Pos() && obj.Pos() <= lit.Body.End()
		})
		return true
	})
}

// checkCall reports the call if it invokes a method of a registered
// single-threaded type and isLocal (when provided) does not prove the
// receiver goroutine-local.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, pos token.Pos, isLocal func(ast.Expr) bool) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil {
		return
	}
	recvType := analysis.RecvTypeName(fn)
	if recvType == "" {
		return
	}
	for _, st := range singleThreaded {
		if recvType != st.typ || !analysis.ObjPkgIs(fn, st.pkg) {
			continue
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isLocal != nil && isLocal(sel.X) {
			return
		}
		pass.Reportf(pos,
			"%s.%s.%s called on a goroutine-shared value; %s is single-threaded (%s) — build one per goroutine or serialize the calls",
			st.pkg, st.typ, fn.Name(), st.typ, st.contract)
		return
	}
}
