package seamless

import (
	"fmt"
	"strings"
)

// Extern describes a foreign function made visible to kernels through the
// FFI layer (paper §IV.C): libm-style scalar functions taking and returning
// float64.
type Extern struct {
	NArgs int
	Fn    func(args ...float64) float64
}

// TypedFn is one type specialization of a function definition: the AST plus
// the inferred type of every variable and expression. Specializations are
// created per distinct argument-type tuple, the way tracing JITs
// specialize.
type TypedFn struct {
	Fn         *FuncDef
	ParamTypes []Type
	Ret        Type
	VarTypes   map[string]Type
	ExprTypes  map[Expr]Type
	prog       *Program
	retSeen    []Type // working list of return-expression types
}

// Program owns a parsed module, its FFI bindings, and the memoized type
// specializations both execution engines share.
type Program struct {
	Module  *Module
	Externs map[string]Extern
	specs   map[string]*TypedFn
	inProg  map[string]bool
}

// NewProgram wraps a parsed module.
func NewProgram(m *Module) *Program {
	return &Program{
		Module:  m,
		Externs: map[string]Extern{},
		specs:   map[string]*TypedFn{},
		inProg:  map[string]bool{},
	}
}

// CompileSource parses src and wraps it in a Program.
func CompileSource(src string) (*Program, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewProgram(m), nil
}

// Bind registers an extern under the given name (overwriting any previous
// binding). Kernels call it like a builtin.
func (pr *Program) Bind(name string, ext Extern) { pr.Externs[name] = ext }

// sigKey builds the memoization key of a specialization.
func sigKey(name string, args []Type) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Specialize infers types for fn called with the given argument types,
// memoizing the result. Recursive calls require a return annotation.
func (pr *Program) Specialize(name string, argTypes []Type) (*TypedFn, error) {
	fn, ok := pr.Module.ByName[name]
	if !ok {
		return nil, fmt.Errorf("seamless: no function %q", name)
	}
	if len(argTypes) != len(fn.Params) {
		return nil, errAt(fn.Line, 1, "%s takes %d arguments, got %d", name, len(fn.Params), len(argTypes))
	}
	key := sigKey(name, argTypes)
	if tf, ok := pr.specs[key]; ok {
		return tf, nil
	}
	if pr.inProg[key] {
		if fn.RetAnn == TUnknown {
			return nil, errAt(fn.Line, 1, "recursive function %q needs a return annotation", name)
		}
		// Provisional entry carrying only the annotated return type.
		return &TypedFn{Fn: fn, ParamTypes: argTypes, Ret: fn.RetAnn, prog: pr}, nil
	}
	pr.inProg[key] = true
	defer delete(pr.inProg, key)

	tf := &TypedFn{
		Fn:         fn,
		ParamTypes: append([]Type(nil), argTypes...),
		VarTypes:   map[string]Type{},
		ExprTypes:  map[Expr]Type{},
		prog:       pr,
	}
	for i, p := range fn.Params {
		at := argTypes[i]
		if p.Ann != TUnknown && p.Ann != at {
			// Allow int arguments into float-annotated params.
			if !(p.Ann == TFloat && at == TInt) {
				return nil, errAt(fn.Line, 1, "%s: parameter %q annotated %v, called with %v", name, p.Name, p.Ann, at)
			}
			at = TFloat
		}
		tf.VarTypes[p.Name] = at
	}
	// Fixpoint iteration: assignments may promote variable types (int ->
	// float), which can re-type earlier expressions in loops.
	var inferErr error
	for pass := 0; pass < 16; pass++ {
		changed := false
		tf.retSeen = tf.retSeen[:0]
		for _, s := range fn.Body {
			c, err := tf.inferStmt(s)
			if err != nil {
				inferErr = err
				break
			}
			changed = changed || c
		}
		if inferErr != nil || !changed {
			break
		}
		if pass == 15 {
			inferErr = errAt(fn.Line, 1, "%s: type inference did not converge", name)
		}
	}
	if inferErr != nil {
		return nil, inferErr
	}
	// Unify return types.
	ret := TNone
	for _, rt := range tf.retSeen {
		if ret == TNone {
			ret = rt
			continue
		}
		u, ok := unify(ret, rt)
		if !ok {
			return nil, errAt(fn.Line, 1, "%s: conflicting return types %v and %v", name, ret, rt)
		}
		ret = u
	}
	if fn.RetAnn != TUnknown {
		if ret == TInt && fn.RetAnn == TFloat {
			ret = TFloat
		}
		if ret != fn.RetAnn && !(ret == TNone && fn.RetAnn == TNone) {
			return nil, errAt(fn.Line, 1, "%s: annotated -> %v but returns %v", name, fn.RetAnn, ret)
		}
	}
	tf.Ret = ret
	pr.specs[key] = tf
	return tf, nil
}

// unify returns the least common supertype of two scalar types.
func unify(a, b Type) (Type, bool) {
	if a == b {
		return a, true
	}
	if a == TInt && b == TFloat || a == TFloat && b == TInt {
		return TFloat, true
	}
	return TUnknown, false
}

func (tf *TypedFn) inferStmt(s Stmt) (changed bool, err error) {
	switch st := s.(type) {
	case *AssignStmt:
		t, err := tf.inferExpr(st.X)
		if err != nil {
			return false, err
		}
		old, seen := tf.VarTypes[st.Name]
		if !seen {
			tf.VarTypes[st.Name] = t
			return true, nil
		}
		u, ok := unify(old, t)
		if !ok {
			return false, errAt(st.Line, st.Col, "variable %q changes type from %v to %v", st.Name, old, t)
		}
		if u != old {
			tf.VarTypes[st.Name] = u
			return true, nil
		}
		return false, nil
	case *AugAssignStmt:
		t, err := tf.inferExpr(st.X)
		if err != nil {
			return false, err
		}
		old, seen := tf.VarTypes[st.Name]
		if !seen {
			return false, errAt(st.Line, st.Col, "augmented assignment to undefined %q", st.Name)
		}
		res, err := binType(st.Op, old, t, st.Pos)
		if err != nil {
			return false, err
		}
		u, ok := unify(old, res)
		if !ok {
			return false, errAt(st.Line, st.Col, "augmented assignment changes %q from %v to %v", st.Name, old, res)
		}
		if u != old {
			tf.VarTypes[st.Name] = u
			return true, nil
		}
		return false, nil
	case *IndexAssignStmt:
		at, seen := tf.VarTypes[st.Name]
		if !seen {
			return false, errAt(st.Line, st.Col, "index assignment to undefined %q", st.Name)
		}
		if !at.IsArray() {
			return false, errAt(st.Line, st.Col, "%q is %v, not an array", st.Name, at)
		}
		it, err := tf.inferExpr(st.Index)
		if err != nil {
			return false, err
		}
		if it != TInt {
			return false, errAt(st.Line, st.Col, "array index must be int, got %v", it)
		}
		vt, err := tf.inferExpr(st.X)
		if err != nil {
			return false, err
		}
		want := TFloat
		if at == TArrInt {
			want = TInt
		}
		if vt != want && !(want == TFloat && vt == TInt) {
			return false, errAt(st.Line, st.Col, "cannot store %v into %v", vt, at)
		}
		return false, nil
	case *ReturnStmt:
		if st.X == nil {
			tf.retSeen = append(tf.retSeen, TNone)
			return false, nil
		}
		t, err := tf.inferExpr(st.X)
		if err != nil {
			return false, err
		}
		tf.retSeen = append(tf.retSeen, t)
		return false, nil
	case *IfStmt:
		ct, err := tf.inferExpr(st.Cond)
		if err != nil {
			return false, err
		}
		if ct != TBool {
			return false, errAt(st.Line, st.Col, "if condition must be bool, got %v", ct)
		}
		changed := false
		for _, sub := range st.Then {
			c, err := tf.inferStmt(sub)
			if err != nil {
				return false, err
			}
			changed = changed || c
		}
		for _, sub := range st.Else {
			c, err := tf.inferStmt(sub)
			if err != nil {
				return false, err
			}
			changed = changed || c
		}
		return changed, nil
	case *WhileStmt:
		ct, err := tf.inferExpr(st.Cond)
		if err != nil {
			return false, err
		}
		if ct != TBool {
			return false, errAt(st.Line, st.Col, "while condition must be bool, got %v", ct)
		}
		changed := false
		for _, sub := range st.Body {
			c, err := tf.inferStmt(sub)
			if err != nil {
				return false, err
			}
			changed = changed || c
		}
		return changed, nil
	case *ForStmt:
		for _, bound := range []Expr{st.Start, st.Stop, st.Step} {
			if bound == nil {
				continue
			}
			bt, err := tf.inferExpr(bound)
			if err != nil {
				return false, err
			}
			if bt != TInt {
				return false, errAt(st.Line, st.Col, "range() bounds must be int, got %v", bt)
			}
		}
		changed := false
		if old, seen := tf.VarTypes[st.Var]; !seen {
			tf.VarTypes[st.Var] = TInt
			changed = true
		} else if old != TInt {
			return false, errAt(st.Line, st.Col, "loop variable %q already %v", st.Var, old)
		}
		for _, sub := range st.Body {
			c, err := tf.inferStmt(sub)
			if err != nil {
				return false, err
			}
			changed = changed || c
		}
		return changed, nil
	case *ExprStmt:
		_, err := tf.inferExpr(st.X)
		return false, err
	case *PassStmt, *BreakStmt, *ContinueStmt:
		return false, nil
	}
	return false, fmt.Errorf("seamless: unknown statement %T", s)
}

func binType(op string, l, r Type, pos Pos) (Type, error) {
	// Whole-array arithmetic: float arrays combine elementwise with float
	// arrays and broadcast against numeric scalars, always yielding a fresh
	// float array. Int arrays stay element-access only — silent elementwise
	// promotion to float would hide the copy a user asked to avoid.
	if l == TArrFloat || r == TArrFloat {
		ok := func(t Type) bool { return t == TArrFloat || t.IsNumeric() }
		if !ok(l) || !ok(r) {
			return TUnknown, errAt(pos.Line, pos.Col, "operator %q cannot combine %v and %v", op, l, r)
		}
		switch op {
		case "+", "-", "*", "/", "//", "%", "**":
			return TArrFloat, nil
		}
		return TUnknown, errAt(pos.Line, pos.Col, "unknown operator %q", op)
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return TUnknown, errAt(pos.Line, pos.Col, "operator %q needs numeric operands, got %v and %v", op, l, r)
	}
	switch op {
	case "/":
		return TFloat, nil // true division, Python 3 semantics
	case "+", "-", "*", "%", "//", "**":
		if l == TInt && r == TInt {
			return TInt, nil
		}
		return TFloat, nil
	}
	return TUnknown, errAt(pos.Line, pos.Col, "unknown operator %q", op)
}

func (tf *TypedFn) inferExpr(e Expr) (Type, error) {
	t, err := tf.inferExprInner(e)
	if err != nil {
		return TUnknown, err
	}
	tf.ExprTypes[e] = t
	return t, nil
}

func (tf *TypedFn) inferExprInner(e Expr) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return TInt, nil
	case *FloatLit:
		return TFloat, nil
	case *BoolLit:
		return TBool, nil
	case *NameExpr:
		t, ok := tf.VarTypes[x.Name]
		if !ok {
			return TUnknown, errAt(x.Line, x.Col, "undefined variable %q", x.Name)
		}
		return t, nil
	case *UnaryExpr:
		t, err := tf.inferExpr(x.X)
		if err != nil {
			return TUnknown, err
		}
		if x.Op == "not" {
			if t != TBool {
				return TUnknown, errAt(x.Line, x.Col, "'not' needs bool, got %v", t)
			}
			return TBool, nil
		}
		if t == TArrFloat {
			return TArrFloat, nil
		}
		if !t.IsNumeric() {
			return TUnknown, errAt(x.Line, x.Col, "unary minus needs a number or float array, got %v", t)
		}
		return t, nil
	case *BinExpr:
		l, err := tf.inferExpr(x.L)
		if err != nil {
			return TUnknown, err
		}
		r, err := tf.inferExpr(x.R)
		if err != nil {
			return TUnknown, err
		}
		return binType(x.Op, l, r, x.Pos)
	case *CmpExpr:
		l, err := tf.inferExpr(x.L)
		if err != nil {
			return TUnknown, err
		}
		r, err := tf.inferExpr(x.R)
		if err != nil {
			return TUnknown, err
		}
		if l == TBool && r == TBool && (x.Op == "==" || x.Op == "!=") {
			return TBool, nil
		}
		if !l.IsNumeric() || !r.IsNumeric() {
			return TUnknown, errAt(x.Line, x.Col, "comparison needs numbers, got %v and %v", l, r)
		}
		return TBool, nil
	case *BoolOpExpr:
		l, err := tf.inferExpr(x.L)
		if err != nil {
			return TUnknown, err
		}
		r, err := tf.inferExpr(x.R)
		if err != nil {
			return TUnknown, err
		}
		if l != TBool || r != TBool {
			return TUnknown, errAt(x.Line, x.Col, "%q needs bool operands, got %v and %v", x.Op, l, r)
		}
		return TBool, nil
	case *IndexExpr:
		at, err := tf.inferExpr(x.Arr)
		if err != nil {
			return TUnknown, err
		}
		if !at.IsArray() {
			return TUnknown, errAt(x.Line, x.Col, "cannot index %v", at)
		}
		it, err := tf.inferExpr(x.Index)
		if err != nil {
			return TUnknown, err
		}
		if it != TInt {
			return TUnknown, errAt(x.Line, x.Col, "array index must be int, got %v", it)
		}
		if at == TArrInt {
			return TInt, nil
		}
		return TFloat, nil
	case *CallExpr:
		return tf.inferCall(x)
	}
	return TUnknown, fmt.Errorf("seamless: unknown expression %T", e)
}

func (tf *TypedFn) inferCall(x *CallExpr) (Type, error) {
	args := make([]Type, len(x.Args))
	for i, a := range x.Args {
		t, err := tf.inferExpr(a)
		if err != nil {
			return TUnknown, err
		}
		args[i] = t
	}
	// Builtins first, then module functions, then externs.
	if IsBuiltin(x.Name, args) {
		return builtinType(x, args)
	}
	if _, ok := tf.prog.Module.ByName[x.Name]; ok {
		// Int arguments promote into float-annotated parameters.
		callee := tf.prog.Module.ByName[x.Name]
		for i, p := range callee.Params {
			if i < len(args) && p.Ann == TFloat && args[i] == TInt {
				args[i] = TFloat
			}
		}
		sub, err := tf.prog.Specialize(x.Name, args)
		if err != nil {
			return TUnknown, err
		}
		return sub.Ret, nil
	}
	if ext, ok := tf.prog.Externs[x.Name]; ok {
		if len(args) != ext.NArgs {
			return TUnknown, errAt(x.Line, x.Col, "extern %q takes %d arguments, got %d", x.Name, ext.NArgs, len(args))
		}
		for i, t := range args {
			if !t.IsNumeric() {
				return TUnknown, errAt(x.Line, x.Col, "extern %q argument %d must be numeric, got %v", x.Name, i+1, t)
			}
		}
		return TFloat, nil
	}
	return TUnknown, errAt(x.Line, x.Col, "unknown function %q", x.Name)
}

// builtinType types a call IsBuiltin claimed.
func builtinType(x *CallExpr, args []Type) (Type, error) {
	bad := func(format string, a ...any) (Type, error) {
		return TUnknown, errAt(x.Line, x.Col, format, a...)
	}
	switch x.Name {
	case "len":
		if len(args) != 1 || !args[0].IsArray() {
			return bad("len() takes one array argument")
		}
		return TInt, nil
	case "sqrt", "sin", "cos", "exp", "log":
		if len(args) == 1 && args[0] == TArrFloat {
			return TArrFloat, nil // elementwise over the whole array
		}
		if len(args) != 1 || !args[0].IsNumeric() {
			return bad("%s() takes one numeric or float-array argument", x.Name)
		}
		return TFloat, nil
	case "abs":
		if len(args) == 1 && args[0] == TArrFloat {
			return TArrFloat, nil
		}
		if len(args) != 1 || !args[0].IsNumeric() {
			return bad("abs() takes one numeric or float-array argument")
		}
		return args[0], nil
	case "min", "max":
		if len(args) != 2 || !args[0].IsNumeric() || !args[1].IsNumeric() {
			return bad("%s() takes two numeric arguments", x.Name)
		}
		u, _ := unify(args[0], args[1])
		return u, nil
	case "int":
		if len(args) != 1 || !args[0].IsNumeric() {
			return bad("int() takes one numeric argument")
		}
		return TInt, nil
	case "float":
		if len(args) != 1 || !args[0].IsNumeric() {
			return bad("float() takes one numeric argument")
		}
		return TFloat, nil
	case "zeros":
		if len(args) != 1 || args[0] != TInt {
			return bad("zeros() takes one int argument")
		}
		return TArrFloat, nil
	case "izeros":
		if len(args) != 1 || args[0] != TInt {
			return bad("izeros() takes one int argument")
		}
		return TArrInt, nil
	case "square", "neg", "hypot":
		want := 1
		if x.Name == "hypot" {
			want = 2
		}
		if len(args) != want {
			return bad("%s() takes %d argument(s), got %d", x.Name, want, len(args))
		}
		for _, t := range args {
			if t != TArrFloat && !t.IsNumeric() {
				return bad("%s() takes float-array or numeric arguments, got %v", x.Name, t)
			}
		}
		return TArrFloat, nil
	}
	panic("seamless: IsBuiltin and builtinType disagree on " + x.Name)
}

// IsBuiltin reports whether a call of name with these argument types is a
// language builtin (builtins shadow module functions and externs). square,
// neg and hypot are builtins only as elementwise float-array operations;
// over scalars the names stay free for module functions and FFI bindings.
func IsBuiltin(name string, args []Type) bool {
	switch name {
	case "len", "sqrt", "sin", "cos", "exp", "log", "abs", "min", "max", "int", "float", "zeros", "izeros":
		return true
	case "square", "neg", "hypot":
		for _, t := range args {
			if t == TArrFloat {
				return true
			}
		}
	}
	return false
}
