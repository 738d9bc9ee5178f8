package p2pmatch

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"

	"odinhpc/internal/analysis"
)

// evKind discriminates protocol events.
type evKind int

const (
	evSend evKind = iota
	evRecv
	evBarrier
)

// event is one protocol-relevant action a rank performs, in program order.
// peer and tag are concrete: the destination of a send, the source of a
// receive (wildcard receives are outside the certified fragment). op names
// the originating call for diagnostics ("Send", "SendRecv", "comm.Bcast",
// ...).
type event struct {
	kind evKind
	peer int64
	tag  int64
	pos  token.Pos
	op   string
}

// value is the interpreter's abstract value: a known int64, a known bool,
// or unknown.
type value struct {
	ok     bool
	isBool bool
	i      int64
	b      bool
}

func intVal(i int64) value { return value{ok: true, i: i} }
func boolVal(b bool) value { return value{ok: true, isBool: true, b: b} }

var unknown = value{}

// flow is the control outcome of executing a statement.
type flow int

const (
	flowNext flow = iota
	flowReturn
	flowBreak
	flowContinue
	flowFall // fallthrough, meaningful only directly inside a switch clause
)

// runner interprets one (P, rank) execution of a protocol scope. It aborts
// via panic: *certErr for shapes outside the provable fragment,
// inapplicable for sizes where the protocol panics before communicating.
type runner struct {
	sc     *scope
	p      int64
	rank   int64
	env    map[types.Object]value
	events []event
	steps  int
}

// run interprets the scope body and returns the rank's event trace.
func (r *runner) run() (trace []event, applicable bool, err *certErr) {
	defer func() {
		switch x := recover().(type) {
		case nil:
		case *certErr:
			err = x
		case inapplicable:
			applicable = false
		default:
			panic(x)
		}
	}()
	r.exec(r.sc.body)
	return r.events, true, nil
}

func (r *runner) fail(pos token.Pos, format string, args ...any) {
	panic(&certErr{pos: pos, reason: fmt.Sprintf(format, args...)})
}

// skip aborts the current (P, rank) run: for size-polymorphic scopes the
// size is inapplicable; for a constant-size scope the panic the runtime
// would hit is a definite finding.
func (r *runner) skip(pos token.Pos, format string, args ...any) {
	if r.sc.knownP == 0 {
		panic(inapplicable{})
	}
	panic(&certErr{pos: pos, reason: fmt.Sprintf(format, args...), kindDiag: true})
}

func (r *runner) emit(ev event) {
	if len(r.events) >= maxEventsRank {
		r.fail(ev.pos, "protocol exceeds %d events per rank", maxEventsRank)
	}
	r.events = append(r.events, ev)
}

// --- statements ---

func (r *runner) exec(s ast.Stmt) flow {
	if s == nil {
		return flowNext
	}
	r.steps++
	if r.steps > maxSteps {
		r.fail(s.Pos(), "interpretation exceeds %d steps (unbounded or very large protocol)", maxSteps)
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			if f := r.exec(st); f != flowNext {
				return f
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && r.isAbortCall(call) {
			r.evalArgs(call)
			return flowReturn
		}
		r.eval(s.X)
	case *ast.AssignStmt:
		r.execAssign(s)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			obj := analysis.IdentObj(r.sc.pass.Info, id)
			if v, ok := r.env[obj]; ok && v.ok && !v.isBool {
				if s.Tok == token.INC {
					v.i++
				} else {
					v.i--
				}
				r.env[obj] = v
				return flowNext
			}
			delete(r.env, obj)
		} else {
			r.eval(s.X)
		}
	case *ast.DeclStmt:
		r.execDecl(s)
	case *ast.IfStmt:
		return r.execIf(s)
	case *ast.SwitchStmt:
		return r.execSwitch(s)
	case *ast.ForStmt:
		return r.execFor(s)
	case *ast.RangeStmt:
		return r.execRange(s)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			r.eval(res)
		}
		return flowReturn
	case *ast.BranchStmt:
		switch {
		case s.Label != nil:
			r.fail(s.Pos(), "labeled %s in protocol control flow", s.Tok)
		case s.Tok == token.BREAK:
			return flowBreak
		case s.Tok == token.CONTINUE:
			return flowContinue
		case s.Tok == token.FALLTHROUGH:
			return flowFall
		default: // goto
			r.fail(s.Pos(), "goto in protocol control flow")
		}
	case *ast.GoStmt:
		if r.containsComm(s.Call) {
			r.fail(s.Pos(), "communication inside a goroutine (cross-goroutine protocol order is unmodeled)")
		}
		r.evalArgs(s.Call)
	case *ast.DeferStmt:
		if r.containsComm(s.Call) {
			r.fail(s.Pos(), "communication inside a defer (runs out of program order)")
		}
		r.evalArgs(s.Call)
	case *ast.SelectStmt:
		r.skipOrFail(s, s, "select statement around communication")
	case *ast.SendStmt:
		if r.containsComm(s) {
			r.fail(s.Pos(), "communication inside a channel send")
		}
		r.eval(s.Chan)
		r.eval(s.Value)
	case *ast.TypeSwitchStmt:
		r.skipOrFail(s, s, "type-dependent control flow around communication")
	case *ast.LabeledStmt:
		return r.exec(s.Stmt)
	case *ast.EmptyStmt:
	default:
		r.skipOrFail(s, s, "unsupported statement around communication")
	}
	return flowNext
}

// skipOrFail poisons and skips node when doing so cannot change the
// protocol (no communication inside, no control escaping past it);
// otherwise the scope is uncertifiable for the given reason.
func (r *runner) skipOrFail(pos ast.Node, n ast.Node, reason string) {
	if r.skippable(n) {
		r.poison(n)
		return
	}
	r.fail(pos.Pos(), "%s", reason)
}

func (r *runner) execAssign(s *ast.AssignStmt) {
	info := r.sc.pass.Info
	setIdent := func(lhs ast.Expr, v value) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				return
			}
			obj := analysis.IdentObj(info, id)
			if obj == nil {
				return
			}
			if v.ok {
				r.env[obj] = v
			} else {
				delete(r.env, obj)
			}
			return
		}
		r.eval(lhs) // evaluate index/selector sub-expressions for events
	}
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 && s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Op-assignment x op= e desugars to x = x op e.
		var cur value
		if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
			cur = r.env[analysis.IdentObj(info, id)]
		}
		rhs := r.eval(s.Rhs[0])
		setIdent(s.Lhs[0], r.binop(opOf(s.Tok), cur, rhs, s.Pos()))
		return
	}
	if len(s.Lhs) == len(s.Rhs) {
		vals := make([]value, len(s.Rhs))
		for i, e := range s.Rhs {
			vals[i] = r.eval(e)
		}
		for i, lhs := range s.Lhs {
			setIdent(lhs, vals[i])
		}
		return
	}
	// Multi-value assignment from a single call/expression.
	for _, e := range s.Rhs {
		r.eval(e)
	}
	for _, lhs := range s.Lhs {
		setIdent(lhs, unknown)
	}
}

// opOf maps an op-assign token to its binary operator.
func opOf(t token.Token) token.Token {
	switch t {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return token.ILLEGAL
}

func (r *runner) execDecl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return // consts are folded by the typechecker; types are inert
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			obj := r.sc.pass.Info.Defs[name]
			var v value
			switch {
			case i < len(vs.Values) && len(vs.Values) == len(vs.Names):
				v = r.eval(vs.Values[i])
			case len(vs.Values) > 0:
				if i == 0 {
					for _, e := range vs.Values {
						r.eval(e)
					}
				}
			default:
				v = zeroValue(obj)
			}
			if obj == nil || name.Name == "_" {
				continue
			}
			if v.ok {
				r.env[obj] = v
			} else {
				delete(r.env, obj)
			}
		}
	}
}

// zeroValue is the declared-without-initializer value of obj: 0 or false
// for basic integer/boolean types, unknown otherwise.
func zeroValue(obj types.Object) value {
	if obj == nil {
		return unknown
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	if !ok {
		return unknown
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		return intVal(0)
	case b.Info()&types.IsBoolean != 0:
		return boolVal(false)
	}
	return unknown
}

func (r *runner) execIf(s *ast.IfStmt) flow {
	if s.Init != nil {
		if f := r.exec(s.Init); f != flowNext {
			return f
		}
	}
	cond := r.eval(s.Cond)
	if cond.ok && cond.isBool {
		if cond.b {
			return r.exec(s.Body)
		}
		return r.exec(s.Else)
	}
	return r.unknownIf(s)
}

// unknownIf handles a condition the interpreter cannot evaluate.
// Error-abort arms are assumed not taken: comm.Run aborts the whole
// session on any rank's error return, so an early exit cannot leave peers
// hanging — which makes the shortcut sound even when the condition is
// rank-derived (the universal `if got != want { return fmt.Errorf }`
// verification idiom). Arms that cannot change the protocol are skipped
// with their assignments poisoned, also regardless of taint. A condition
// that survives both shortcuts leaves the provable fragment: the protocol
// would fork on it.
func (r *runner) unknownIf(s *ast.IfStmt) flow {
	if r.abortArm(s.Body) {
		r.poison(s.Body)
		return r.exec(s.Else)
	}
	if eb, ok := s.Else.(*ast.BlockStmt); ok && r.abortArm(eb) {
		r.poison(eb)
		return r.exec(s.Body)
	}
	if r.skippable(s.Body) && (s.Else == nil || r.skippable(s.Else)) {
		r.poison(s.Body)
		if s.Else != nil {
			r.poison(s.Else)
		}
		return flowNext
	}
	if r.sc.spmd.RankDerived(s.Cond) {
		r.fail(s.Cond.Pos(), "condition mixes rank-derived and run-time values; cannot resolve which ranks take this branch")
	}
	r.fail(s.Cond.Pos(), "run-time condition around communication; the protocol forks on a value the interpreter cannot resolve")
	return flowNext
}

func (r *runner) execSwitch(s *ast.SwitchStmt) flow {
	if s.Init != nil {
		if f := r.exec(s.Init); f != flowNext {
			return f
		}
	}
	var tag value
	if s.Tag != nil {
		tag = r.eval(s.Tag)
	}
	clauses := make([]*ast.CaseClause, 0, len(s.Body.List))
	var deflt *ast.CaseClause
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
		} else {
			clauses = append(clauses, cc)
		}
	}
	runFrom := func(idx int, list []*ast.CaseClause) flow {
		for i := idx; i < len(list); i++ {
			f := r.execBody(list[i].Body)
			if f != flowFall {
				if f == flowBreak {
					return flowNext
				}
				return f
			}
		}
		return flowNext
	}
	for i, cc := range clauses {
		taken := false
		known := true
		for _, ce := range cc.List {
			v := r.eval(ce)
			switch {
			case s.Tag != nil && v.ok && tag.ok:
				if v.isBool == tag.isBool && ((v.isBool && v.b == tag.b) || (!v.isBool && v.i == tag.i)) {
					taken = true
				}
			case s.Tag == nil && v.ok && v.isBool:
				if v.b {
					taken = true
				}
			default:
				known = false
			}
		}
		if !known && !taken {
			if r.sc.spmd.RankDerived(s.Tag) || slices.ContainsFunc(cc.List, r.sc.spmd.RankDerived) {
				r.fail(cc.Pos(), "switch on a rank-derived run-time value; cannot resolve which ranks take this case")
			}
			r.fail(cc.Pos(), "switch on a run-time value around communication; the protocol forks on a case the interpreter cannot resolve")
		}
		if taken {
			return runFrom(i, clauses)
		}
	}
	if deflt != nil {
		f := r.execBody(deflt.Body)
		if f == flowBreak || f == flowFall {
			return flowNext
		}
		return f
	}
	return flowNext
}

func (r *runner) execBody(list []ast.Stmt) flow {
	for i, st := range list {
		f := r.exec(st)
		if f == flowFall && i != len(list)-1 {
			r.fail(st.Pos(), "fallthrough not at end of case body")
		}
		if f != flowNext {
			return f
		}
	}
	return flowNext
}

func (r *runner) execFor(s *ast.ForStmt) flow {
	if s.Init != nil {
		if f := r.exec(s.Init); f != flowNext {
			return f
		}
	}
	for iter := 0; ; iter++ {
		if iter > maxIterations {
			r.fail(s.Pos(), "loop exceeds %d iterations", maxIterations)
		}
		cond := boolVal(true)
		if s.Cond != nil {
			cond = r.eval(s.Cond)
		}
		if !cond.ok || !cond.isBool {
			if r.sc.spmd.RankDerived(s.Cond) {
				r.fail(s.Cond.Pos(), "loop bound mixes rank-derived and run-time values")
			}
			if r.skippable(s.Body) && (s.Post == nil || r.skippable(s.Post)) {
				r.poison(s.Body)
				if s.Post != nil {
					r.poison(s.Post)
				}
				return flowNext
			}
			r.fail(s.Cond.Pos(), "cannot bound loop: data-dependent condition around communication")
		}
		if !cond.b {
			return flowNext
		}
		switch r.exec(s.Body) {
		case flowReturn:
			return flowReturn
		case flowBreak:
			return flowNext
		}
		if s.Post != nil {
			r.exec(s.Post)
		}
	}
}

func (r *runner) execRange(s *ast.RangeStmt) flow {
	x := r.eval(s.X)
	if x.ok && !x.isBool {
		// Go 1.22 range-over-int: for i := range n.
		var keyObj types.Object
		if s.Key != nil {
			if id, ok := ast.Unparen(s.Key).(*ast.Ident); ok && id.Name != "_" {
				keyObj = analysis.IdentObj(r.sc.pass.Info, id)
			}
		}
		for i := int64(0); i < x.i; i++ {
			if int(i) > maxIterations {
				r.fail(s.Pos(), "loop exceeds %d iterations", maxIterations)
			}
			if keyObj != nil {
				r.env[keyObj] = intVal(i)
			}
			switch r.exec(s.Body) {
			case flowReturn:
				return flowReturn
			case flowBreak:
				return flowNext
			}
		}
		return flowNext
	}
	if r.skippable(s.Body) {
		r.poison(s)
		return flowNext
	}
	if r.sc.spmd.RankDerived(s.X) {
		r.fail(s.X.Pos(), "range bound mixes rank-derived and run-time values")
	}
	r.fail(s.X.Pos(), "cannot bound range loop over a run-time value around communication")
	return flowNext
}

// --- expressions ---

func (r *runner) eval(e ast.Expr) value {
	if e == nil {
		return unknown
	}
	// Typechecker-folded constants first: literals, named constants,
	// constant arithmetic. Constant expressions cannot have side effects.
	if tv, ok := r.sc.pass.Info.Types[e]; ok && tv.Value != nil {
		switch tv.Value.Kind() {
		case constant.Int:
			if i, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				return intVal(i)
			}
		case constant.Bool:
			return boolVal(constant.BoolVal(tv.Value))
		}
		return unknown
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := analysis.IdentObj(r.sc.pass.Info, e); obj != nil {
			return r.env[obj]
		}
	case *ast.ParenExpr:
		return r.eval(e.X)
	case *ast.UnaryExpr:
		x := r.eval(e.X)
		switch e.Op {
		case token.SUB:
			if x.ok && !x.isBool {
				return intVal(-x.i)
			}
		case token.ADD:
			return x
		case token.NOT:
			if x.ok && x.isBool {
				return boolVal(!x.b)
			}
		case token.XOR:
			if x.ok && !x.isBool {
				return intVal(^x.i)
			}
		}
		return unknown
	case *ast.BinaryExpr:
		return r.evalBinary(e)
	case *ast.CallExpr:
		return r.evalCall(e)
	case *ast.SelectorExpr:
		r.checkMethodValue(e)
		if _, ok := ast.Unparen(e.X).(*ast.Ident); !ok {
			r.eval(e.X)
		}
	case *ast.StarExpr:
		r.eval(e.X)
	case *ast.TypeAssertExpr:
		r.eval(e.X)
	case *ast.IndexExpr:
		r.eval(e.X)
		r.eval(e.Index)
	case *ast.IndexListExpr:
		r.eval(e.X)
		for _, i := range e.Indices {
			r.eval(i)
		}
	case *ast.SliceExpr:
		r.eval(e.X)
		r.eval(e.Low)
		r.eval(e.High)
		r.eval(e.Max)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				r.eval(kv.Value)
			} else {
				r.eval(elt)
			}
		}
	case *ast.FuncLit:
		if r.containsComm(e.Body) {
			r.fail(e.Pos(), "communication inside a nested function literal (runs where called, not where written)")
		}
	}
	return unknown
}

// checkMethodValue rejects comm primitives used as method values (c.Recv
// passed as a callback): the call site is invisible to the interpreter.
func (r *runner) checkMethodValue(e *ast.SelectorExpr) {
	sel, ok := r.sc.pass.Info.Selections[e]
	if !ok || sel.Kind() != types.MethodVal {
		return
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok {
		return
	}
	if _, p2p := isP2P(fn); p2p {
		r.fail(e.Pos(), "point-to-point method used as a function value")
	}
}

func (r *runner) evalBinary(e *ast.BinaryExpr) value {
	if e.Op == token.LAND || e.Op == token.LOR {
		x := r.eval(e.X)
		if x.ok && x.isBool {
			if (e.Op == token.LAND && !x.b) || (e.Op == token.LOR && x.b) {
				return x // short-circuit: Y is not evaluated
			}
			return r.eval(e.Y)
		}
		if r.containsComm(e.Y) {
			r.fail(e.Y.Pos(), "communication in a conditionally-evaluated operand")
		}
		return unknown
	}
	x := r.eval(e.X)
	y := r.eval(e.Y)
	return r.binop(e.Op, x, y, e.OpPos)
}

func (r *runner) binop(op token.Token, x, y value, pos token.Pos) value {
	if !x.ok || !y.ok {
		return unknown
	}
	if x.isBool || y.isBool {
		if x.isBool && y.isBool {
			switch op {
			case token.EQL:
				return boolVal(x.b == y.b)
			case token.NEQ:
				return boolVal(x.b != y.b)
			}
		}
		return unknown
	}
	switch op {
	case token.ADD:
		return intVal(x.i + y.i)
	case token.SUB:
		return intVal(x.i - y.i)
	case token.MUL:
		return intVal(x.i * y.i)
	case token.QUO:
		if y.i == 0 {
			r.skip(pos, "integer division by zero at P=%d", r.p)
		}
		return intVal(x.i / y.i)
	case token.REM:
		if y.i == 0 {
			r.skip(pos, "integer division by zero at P=%d", r.p)
		}
		return intVal(x.i % y.i)
	case token.AND:
		return intVal(x.i & y.i)
	case token.OR:
		return intVal(x.i | y.i)
	case token.XOR:
		return intVal(x.i ^ y.i)
	case token.AND_NOT:
		return intVal(x.i &^ y.i)
	case token.SHL:
		if y.i < 0 || y.i > 63 {
			return unknown
		}
		return intVal(x.i << uint(y.i))
	case token.SHR:
		if y.i < 0 || y.i > 63 {
			return unknown
		}
		return intVal(x.i >> uint(y.i))
	case token.EQL:
		return boolVal(x.i == y.i)
	case token.NEQ:
		return boolVal(x.i != y.i)
	case token.LSS:
		return boolVal(x.i < y.i)
	case token.LEQ:
		return boolVal(x.i <= y.i)
	case token.GTR:
		return boolVal(x.i > y.i)
	case token.GEQ:
		return boolVal(x.i >= y.i)
	}
	return unknown
}

// evalArgs evaluates a call's arguments for their protocol events without
// classifying the call itself.
func (r *runner) evalArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		r.eval(a)
	}
}

func (r *runner) evalCall(call *ast.CallExpr) value {
	info := r.sc.pass.Info
	if b := analysis.CalleeBuiltin(info, call); b != "" {
		r.evalArgs(call)
		return unknown
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		// Conversion: numeric values pass through (framework peers and tags
		// are int-family; overflow at narrower widths is out of scope).
		v := r.eval(call.Args[0])
		if v.ok && !v.isBool {
			return v
		}
		return unknown
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		// Dynamic call through a function value.
		r.evalArgs(call)
		if r.containsComm(call.Fun) {
			r.fail(call.Pos(), "communication behind a dynamic call")
		}
		return unknown
	}
	if name, ok := isP2P(fn); ok {
		r.evalP2P(call, name)
		return unknown
	}
	if cname := analysis.CollectiveName(info, call); cname != "" {
		r.evalArgs(call)
		key, ok := keyOf(info, analysis.CommValueExpr(info, call))
		if !ok || key != r.sc.comm {
			r.fail(call.Pos(), "collective on a different communicator than the protocol's point-to-point traffic")
		}
		r.emit(event{kind: evBarrier, pos: call.Pos(), op: cname})
		return unknown
	}
	if analysis.IsMethodOn(fn, "comm", "Comm", "Rank") {
		if key, ok := keyOf(info, analysis.CommValueExpr(info, call)); ok && key == r.sc.comm {
			return intVal(r.rank)
		}
		return unknown
	}
	if analysis.IsMethodOn(fn, "comm", "Comm", "Size") {
		if key, ok := keyOf(info, analysis.CommValueExpr(info, call)); ok && key == r.sc.comm {
			return intVal(r.p)
		}
		return unknown
	}
	if isRunFn(fn) {
		// A nested protocol launch: its literal is analyzed as its own
		// scope; the launch itself is opaque to this scope's trace.
		return unknown
	}
	if r.sc.commFns[fn] {
		r.fail(call.Pos(), "calls %s, which itself communicates; inline the protocol or annotate", fn.Name())
	}
	r.evalArgs(call)
	return unknown
}

// evInt evaluates a peer or tag operand that must be concrete.
func (r *runner) evInt(e ast.Expr, what, op string) int64 {
	v := r.eval(e)
	if !v.ok || v.isBool {
		r.fail(e.Pos(), "%s %s operand is not a compile-time function of rank and size (non-affine protocol)", op, what)
	}
	return v.i
}

// checkPeer validates a concrete peer against the communicator size,
// mirroring comm's own bounds panic.
func (r *runner) checkPeer(pos token.Pos, op string, peer int64) {
	if peer < 0 || peer >= r.p {
		r.skip(pos, "%s peer %d is outside the communicator (size %d): this call panics at run time", op, peer, r.p)
	}
}

func (r *runner) evalP2P(call *ast.CallExpr, name string) {
	info := r.sc.pass.Info
	key, ok := keyOf(info, analysis.CommValueExpr(info, call))
	if !ok {
		r.fail(call.Pos(), "communicator expression is too complex to track")
	}
	if key != r.sc.comm {
		if sub, _ := r.sc.spmd.SubComm(key.base); sub {
			r.fail(call.Pos(), "point-to-point on a Split sub-communicator (ranks are renumbered within the subgroup)")
		}
		r.fail(call.Pos(), "point-to-point on a second communicator value in the same protocol")
	}
	pos := call.Pos()
	switch name {
	case "Send", "sendFloats", "sendIndexed": // Send(dst, tag, payload...)
		dst := r.evInt(call.Args[0], "destination", name)
		tag := r.evInt(call.Args[1], "tag", name)
		for _, a := range call.Args[2:] {
			r.eval(a)
		}
		r.checkPeer(pos, name, dst)
		r.emit(event{kind: evSend, peer: dst, tag: tag, pos: pos, op: name})
	case "Recv", "RecvMsg", "recvIndexed": // Recv(src, tag, destination...)
		src := r.evInt(call.Args[0], "source", name)
		tag := r.evInt(call.Args[1], "tag", name)
		for _, a := range call.Args[2:] {
			r.eval(a)
		}
		r.checkWild(pos, src, tag)
		r.checkPeer(pos, name, src)
		r.emit(event{kind: evRecv, peer: src, tag: tag, pos: pos, op: name})
	case "SendRecv": // SendRecv(dst, payload, src, tag) = Send then Recv
		dst := r.evInt(call.Args[0], "destination", "SendRecv")
		r.eval(call.Args[1])
		src := r.evInt(call.Args[2], "source", "SendRecv")
		tag := r.evInt(call.Args[3], "tag", "SendRecv")
		r.checkPeer(pos, "SendRecv", dst)
		r.checkWild(pos, src, tag)
		r.checkPeer(pos, "SendRecv", src)
		r.emit(event{kind: evSend, peer: dst, tag: tag, pos: pos, op: "SendRecv"})
		r.emit(event{kind: evRecv, peer: src, tag: tag, pos: pos, op: "SendRecv"})
	case "Probe":
		r.fail(pos, "Probe-guarded protocol is data-dependent (matching depends on message arrival timing)")
	}
}

// checkWild rejects a receive from AnySource or with AnyTag (both -1 in
// comm): which pending message it takes depends on arrival order, so one
// replay no longer stands for every schedule.
func (r *runner) checkWild(pos token.Pos, src, tag int64) {
	if src == -1 || tag == -1 {
		r.fail(pos, "wildcard receive (AnySource or AnyTag); its matching depends on arrival order")
	}
}

// isAbortCall reports whether call unconditionally ends the rank's
// protocol participation: panic, testing.T/B/F Fatal/Skip family, os.Exit,
// runtime.Goexit.
func (r *runner) isAbortCall(call *ast.CallExpr) bool {
	if analysis.CalleeBuiltin(r.sc.pass.Info, call) == "panic" {
		return true
	}
	fn := analysis.Callee(r.sc.pass.Info, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
		rt := analysis.RecvTypeName(fn)
		return analysis.ObjPkgIs(fn, "testing") && (rt == "T" || rt == "B" || rt == "F" || rt == "common")
	case "Exit":
		return fn.Pkg() != nil && fn.Pkg().Path() == "os"
	case "Goexit":
		return fn.Pkg() != nil && fn.Pkg().Path() == "runtime"
	}
	return false
}

// --- protocol-shape predicates ---

// containsComm reports whether n contains any communication the protocol
// trace would have to model: point-to-point calls or method values,
// collectives, calls to same-package communicating helpers, or nested
// protocol launches.
func (r *runner) containsComm(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.Callee(r.sc.pass.Info, n)
			if _, ok := isP2P(fn); ok {
				found = true
			} else if analysis.CollectiveName(r.sc.pass.Info, n) != "" {
				found = true
			} else if isRunFn(fn) {
				found = true
			} else if fn != nil && r.sc.commFns[fn] {
				found = true
			}
		case *ast.SelectorExpr:
			if sel, ok := r.sc.pass.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					if _, p2p := isP2P(fn); p2p {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// abortArm reports whether block is an error-abort arm: it performs no
// communication and its execution provably ends the function — via a
// non-control return (analysis.ControlReturn) or an abort call. Such arms
// are assumed not taken.
func (r *runner) abortArm(block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 || r.containsComm(block) {
		return false
	}
	for _, st := range block.List {
		switch st := st.(type) {
		case *ast.ReturnStmt:
			if !analysis.ControlReturn(st) {
				return true
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && r.isAbortCall(call) {
				return true
			}
		}
	}
	return false
}

// skippable reports whether skipping n entirely (poisoning its
// assignments) cannot change the protocol: it contains no communication
// and no control flow escapes past it — no control returns, no
// breaks/continues binding outside n, no gotos. Abort returns inside are
// fine (assumed not taken); breaks binding to a loop or switch inside n
// (or to n itself) stay inside the skipped region.
func (r *runner) skippable(n ast.Node) bool {
	if n == nil {
		return true
	}
	if r.containsComm(n) {
		return false
	}
	return !escapes(n)
}

// escapes reports whether control flow can leave n other than by falling
// through its end.
func escapes(n ast.Node) bool {
	breakDepth, loopDepth := 0, 0
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		breakDepth, loopDepth = 1, 1
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		breakDepth = 1
	}
	return escapesWalk(n, n, breakDepth, loopDepth)
}

func escapesWalk(root, n ast.Node, breakDepth, loopDepth int) bool {
	esc := false
	var walk func(n ast.Node, bd, ld int)
	walk = func(n ast.Node, bd, ld int) {
		if esc || n == nil {
			return
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return // its control flow is its own
		case *ast.ReturnStmt:
			if analysis.ControlReturn(s) {
				esc = true
			}
			return
		case *ast.BranchStmt:
			switch {
			case s.Label != nil || s.Tok == token.GOTO:
				esc = true
			case s.Tok == token.BREAK && bd == 0:
				esc = true
			case s.Tok == token.CONTINUE && ld == 0:
				esc = true
			}
			return
		case *ast.ForStmt:
			if s != root {
				walk(s.Init, bd, ld)
				walk(s.Body, bd+1, ld+1)
				walk(s.Post, bd, ld)
				return
			}
		case *ast.RangeStmt:
			if s != root {
				walk(s.Body, bd+1, ld+1)
				return
			}
		case *ast.SwitchStmt:
			if s != root {
				walk(s.Init, bd, ld)
				walk(s.Body, bd+1, ld)
				return
			}
		case *ast.TypeSwitchStmt:
			if s != root {
				walk(s.Init, bd, ld)
				walk(s.Assign, bd, ld)
				walk(s.Body, bd+1, ld)
				return
			}
		case *ast.SelectStmt:
			if s != root {
				walk(s.Body, bd+1, ld)
				return
			}
		}
		// Generic descent preserving the current depths.
		var children []ast.Node
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			children = append(children, c)
			return false
		})
		for _, c := range children {
			walk(c, bd, ld)
		}
	}
	walk(n, breakDepth, loopDepth)
	return esc
}

// poison forgets every variable n assigns: skipped code may have changed
// them in ways the interpreter did not model.
func (r *runner) poison(n ast.Node) {
	info := r.sc.pass.Info
	drop := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := analysis.IdentObj(info, id); obj != nil {
				delete(r.env, obj)
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				drop(lhs)
			}
		case *ast.IncDecStmt:
			drop(s.X)
		case *ast.ValueSpec:
			for _, name := range s.Names {
				drop(name)
			}
		case *ast.RangeStmt:
			if s.Key != nil {
				drop(s.Key)
			}
			if s.Value != nil {
				drop(s.Value)
			}
		}
		return true
	})
}
