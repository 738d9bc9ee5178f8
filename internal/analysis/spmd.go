package analysis

import (
	"go/ast"
	"go/types"
)

// SPMD is the rank model of one function scope that commsym's collective
// checks read: which locals carry rank-derived
// values, and which hold sub-communicators obtained from (*Comm).Split.
type SPMD struct {
	info    *types.Info
	tainted map[types.Object]bool
	// splits holds every Split sub-communicator; the value is whether its
	// colour is rank-derived, which makes the subgroups disjoint.
	splits map[types.Object]bool
}

// NewSPMD builds the rank model of scope (a function declaration or
// literal). Taint enters at comm.Rank() — or the rank field inside package
// comm — and flows through operators, conversions and ident copies, but
// deliberately not through ordinary calls: c.Split(c.Rank()%2, 0) consumes a
// rank and returns a communicator, not a rank value.
func NewSPMD(info *types.Info, scope ast.Node) *SPMD {
	m := &SPMD{info: info, tainted: map[types.Object]bool{}, splits: map[types.Object]bool{}}
	m.propagate(scope, m.tainted, func(e ast.Expr) (bool, bool) {
		return m.RankDerived(e), true
	})
	m.propagate(scope, m.splits, func(e ast.Expr) (in, disjoint bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if IsMethodOn(Callee(info, e), "comm", "Comm", "Split") {
				return true, len(e.Args) > 0 && m.RankDerived(e.Args[0])
			}
		case *ast.Ident:
			disjoint, in = m.splits[IdentObj(info, e)]
		}
		return in, disjoint
	})
	return m
}

// propagate grows set over scope's assignments and var declarations until a
// round adds nothing, so chains like r := c.Rank(); isRoot := r == 0 resolve
// in any declaration order. A variable assigned from an expression that
// eval admits joins set, with eval's bit OR-ed into its entry.
func (m *SPMD) propagate(scope ast.Node, set map[types.Object]bool, eval func(ast.Expr) (in, bit bool)) {
	for changed := true; changed; {
		changed = false
		assign := func(lhs ast.Expr, rhs ast.Expr) {
			id, ok := lhs.(*ast.Ident)
			if !ok || rhs == nil {
				return
			}
			obj := IdentObj(m.info, id)
			in, bit := eval(rhs)
			if old, seen := set[obj]; obj != nil && in && (!seen || bit && !old) {
				set[obj] = bit || old
				changed = true
			}
		}
		ast.Inspect(scope, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					assign(lhs, rhsFor(s.Rhs, i, len(s.Lhs)))
				}
			case *ast.ValueSpec:
				for i, id := range s.Names {
					assign(id, rhsFor(s.Values, i, len(s.Names)))
				}
			}
			return true
		})
	}
}

// rhsFor returns the expression assigned to the i-th of n targets: its own
// in a parallel assignment, the one multi-value expression otherwise.
func rhsFor(rhs []ast.Expr, i, n int) ast.Expr {
	switch len(rhs) {
	case n:
		return rhs[i]
	case 1:
		return rhs[0]
	}
	return nil
}

// RankDerived reports whether the value of e derives from this rank's index.
func (m *SPMD) RankDerived(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := IdentObj(m.info, e)
		return obj != nil && m.tainted[obj]
	case *ast.ParenExpr:
		return m.RankDerived(e.X)
	case *ast.UnaryExpr:
		return m.RankDerived(e.X)
	case *ast.BinaryExpr:
		return m.RankDerived(e.X) || m.RankDerived(e.Y)
	case *ast.CallExpr:
		if IsMethodOn(Callee(m.info, e), "comm", "Comm", "Rank") {
			return true
		}
		// Conversions propagate the converted value's taint; other calls
		// launder it.
		if tv, ok := m.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return m.RankDerived(e.Args[0])
		}
	case *ast.SelectorExpr:
		// Inside package comm itself, c.rank is the rank source.
		if sel, ok := m.info.Selections[e]; ok && e.Sel.Name == "rank" && sel.Kind() == types.FieldVal {
			return TypeIs(sel.Recv(), "comm", "Comm")
		}
	}
	return false
}

// SubComm reports whether obj holds a Split sub-communicator, and whether
// its subgroups are disjoint (the colour is rank-derived).
func (m *SPMD) SubComm(obj types.Object) (sub, disjoint bool) {
	disjoint, sub = m.splits[obj]
	return sub, disjoint
}

// CollectiveName returns the reportable name of the collective invoked by
// call ("comm.Bcast", "(*comm.Comm).Barrier"), or "" if the call is not a
// collective. Collectives are the methods Barrier and Split on comm.Comm
// plus every exported package-level comm function whose first parameter is
// a *comm.Comm — the shape of Bcast, Reduce, Allreduce, Gather, Allgather,
// Scatter, Alltoall, Scan and their Scalar variants, which keeps the list
// in sync with the comm API instead of hardcoding names.
func CollectiveName(info *types.Info, call *ast.CallExpr) string {
	fn := Callee(info, call)
	if fn == nil || !ObjPkgIs(fn, "comm") || !fn.Exported() {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if TypeIs(recv.Type(), "comm", "Comm") && (fn.Name() == "Barrier" || fn.Name() == "Split") {
			return "(*comm.Comm)." + fn.Name()
		}
		return ""
	}
	if sig.Params().Len() == 0 || !TypeIs(sig.Params().At(0).Type(), "comm", "Comm") {
		return ""
	}
	return "comm." + fn.Name()
}

// ControlReturn reports whether ret steers control flow rather than aborting
// on an error: a bare return, or one returning only nil/true/false and
// basic literals. Returning a constructed or propagated error (`return
// fmt.Errorf(...)`, `return err`) is an abort path — the rank is declaring
// failure, which comm.Run turns into a session-wide abort — and aborts are
// outside the SPMD symmetry contract.
func ControlReturn(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		switch r := ast.Unparen(r).(type) {
		case *ast.BasicLit:
		case *ast.Ident:
			if r.Name != "nil" && r.Name != "true" && r.Name != "false" {
				return false
			}
		default:
			return false
		}
	}
	return true
}
