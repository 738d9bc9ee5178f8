// Package hotalloc implements the odinvet analyzer that keeps allocation
// and boxing out of the framework's hot loops: the chunk kernels handed to
// exec.ParallelFor / exec.ParallelReduce — as function literals — or to
// exec.ForRange / exec.ReduceRange — as the package's own range functions —
// and the internal/dense Vec* op bodies that the fusion register VM sweeps
// block-by-block. One append or
// fmt call inside a chunk kernel turns a memory-bound sweep into an
// allocator benchmark; benchguard only notices after the regression ships,
// this analyzer rejects it at compile time. Deliberate per-chunk scratch
// (e.g. a reduction accumulator allocated once per chunk and amortized over
// it) is annotated //lint:allow hotalloc with a justification.
package hotalloc

import (
	"go/ast"
	"go/types"

	"odinhpc/internal/analysis"
)

// Analyzer forbids allocation, fmt, and interface boxing in hot kernels.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbids append/make/new, fmt calls, and interface boxing inside " +
		"exec.ParallelFor/ParallelReduce/ForRange/ReduceRange chunk kernels and internal/dense " +
		"Vec* op bodies; annotate deliberate per-chunk scratch with " +
		"//lint:allow hotalloc <why>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Range functions are named, so their bodies are found by declaration.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(decl *ast.FuncDecl) {
			if obj := pass.Info.Defs[decl.Name]; obj != nil && decl.Body != nil {
				decls[obj] = decl
			}
		})
	}
	for _, file := range pass.Files {
		// internal/dense Vec* bodies are hot regions in their entirety: they
		// are the per-block kernels the fusion VM executes.
		if analysis.PkgIs(pass.Pkg.Path(), "dense") {
			analysis.FuncScopes(file, func(decl *ast.FuncDecl) {
				if decl.Recv == nil && len(decl.Name.Name) > 3 && decl.Name.Name[:3] == "Vec" {
					checkHotBody(pass, decl.Body, "dense."+decl.Name.Name)
				}
			})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, k := range kernelArgs(pass, call) {
				switch arg := k.arg.(type) {
				case *ast.FuncLit:
					checkHotBody(pass, arg.Body, k.label)
				case *ast.Ident:
					if decl := decls[pass.Info.Uses[arg]]; decl != nil {
						checkHotBody(pass, decl.Body, k.label+" "+arg.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// kernel identifies one function-literal argument that runs as a chunk
// kernel.
type kernel struct {
	arg   ast.Expr
	label string
}

// kernelArgs returns the chunk-kernel arguments of call, if it is
// exec.(*Engine).ParallelFor(n, body), exec.ParallelReduce(e, n, fold,
// combine), exec.ForRange(e, n, a, body) or exec.ReduceRange(e, n, a, fold,
// combine).
func kernelArgs(pass *analysis.Pass, call *ast.CallExpr) []kernel {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || !analysis.ObjPkgIs(fn, "exec") {
		return nil
	}
	switch {
	case fn.Name() == "ParallelFor" && analysis.RecvTypeName(fn) == "Engine" && len(call.Args) >= 2:
		return []kernel{{call.Args[1], "exec.ParallelFor kernel"}}
	case fn.Name() == "ParallelReduce" && analysis.RecvTypeName(fn) == "" && len(call.Args) >= 4:
		return []kernel{
			{call.Args[2], "exec.ParallelReduce fold kernel"},
			{call.Args[3], "exec.ParallelReduce combine kernel"},
		}
	case fn.Name() == "ForRange" && analysis.RecvTypeName(fn) == "" && len(call.Args) >= 4:
		return []kernel{{call.Args[3], "exec.ForRange kernel"}}
	case fn.Name() == "ReduceRange" && analysis.RecvTypeName(fn) == "" && len(call.Args) >= 5:
		return []kernel{
			{call.Args[3], "exec.ReduceRange fold kernel"},
			{call.Args[4], "exec.ReduceRange combine kernel"},
		}
	}
	return nil
}

// checkHotBody reports every forbidden construct inside a hot region.
func checkHotBody(pass *analysis.Pass, body *ast.BlockStmt, label string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b := analysis.CalleeBuiltin(pass.Info, call); b == "append" || b == "make" || b == "new" {
			pass.Reportf(call.Pos(), "%s allocates in %s; hoist the allocation out of the hot loop or annotate deliberate per-chunk scratch with //lint:allow hotalloc", b, label)
			return true
		}
		if fn := analysis.Callee(pass.Info, call); fn != nil && analysis.ObjPkgIs(fn, "fmt") {
			pass.Reportf(call.Pos(), "fmt.%s call in %s; formatting allocates and serializes — move it out of the kernel", fn.Name(), label)
			return true
		}
		checkBoxing(pass, call, label)
		return true
	})
}

// checkBoxing flags arguments whose concrete value is implicitly converted
// to an interface parameter — each such conversion heap-allocates on the
// hot path. panic arguments are exempt: they are the cold failure path.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, label string) {
	if b := analysis.CalleeBuiltin(pass.Info, call); b != "" {
		return // panic, len, cap, copy, ... never box on the happy path
	}
	fn := analysis.Callee(pass.Info, call)
	if fn == nil {
		return // dynamic call: parameter types unknown statically
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		// A type parameter's underlying is an interface, but instantiation
		// resolves it to a concrete type — no boxing happens at run time.
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue
		}
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
			continue
		}
		if tv.IsNil() {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes %s into %s in %s; interface conversion allocates on the hot path", tv.Type, pt, label)
	}
}
