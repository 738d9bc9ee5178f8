package vm

import (
	"fmt"

	"odinhpc/internal/seamless"
)

// lower translates a typed function into bytecode.
func (e *Engine) lower(tf *seamless.TypedFn) (*Proc, error) {
	l := &lowerer{
		engine: e,
		tf:     tf,
		proc: &Proc{
			Name:    tf.Fn.Name,
			NParams: len(tf.Fn.Params),
			slotOf:  map[string]int{},
		},
	}
	// Parameters occupy the first slots in order.
	for _, p := range tf.Fn.Params {
		l.slot(p.Name)
	}
	for _, s := range tf.Fn.Body {
		if err := l.stmt(s); err != nil {
			return nil, err
		}
	}
	l.emit(Instr{Op: OpRetNone})
	l.proc.NSlots = len(l.proc.slotOf)
	return l.proc, nil
}

type loopLabels struct {
	breakJumps []int // instruction indices to patch to loop end
	contTarget int   // -1 until known (patched after body)
	contJumps  []int
}

type lowerer struct {
	engine *Engine
	tf     *seamless.TypedFn
	proc   *Proc
	loops  []*loopLabels
}

func (l *lowerer) emit(i Instr) int {
	l.proc.Code = append(l.proc.Code, i)
	return len(l.proc.Code) - 1
}

func (l *lowerer) here() int { return len(l.proc.Code) }

func (l *lowerer) patch(at, target int) { l.proc.Code[at].A = target }

func (l *lowerer) slot(name string) int {
	if s, ok := l.proc.slotOf[name]; ok {
		return s
	}
	s := len(l.proc.slotOf)
	l.proc.slotOf[name] = s
	return s
}

func (l *lowerer) calleeID(c callee) int {
	l.proc.callees = append(l.proc.callees, c)
	return len(l.proc.callees) - 1
}

func (l *lowerer) stmt(s seamless.Stmt) error {
	switch st := s.(type) {
	case *seamless.AssignStmt:
		if err := l.expr(st.X); err != nil {
			return err
		}
		l.emit(Instr{Op: OpStore, A: l.slot(st.Name)})
	case *seamless.AugAssignStmt:
		l.emit(Instr{Op: OpLoad, A: l.slot(st.Name)})
		if err := l.expr(st.X); err != nil {
			return err
		}
		l.emit(Instr{Op: binOp(st.Op)})
		l.emit(Instr{Op: OpStore, A: l.slot(st.Name)})
	case *seamless.IndexAssignStmt:
		if err := l.expr(st.Index); err != nil {
			return err
		}
		if st.Op == "" {
			if err := l.expr(st.X); err != nil {
				return err
			}
		} else {
			// arr[i] op= v  ->  load arr[i]; v; op.
			l.emit(Instr{Op: OpLoad, A: l.slot(st.Name)})
			// Index is already on the stack below the array; re-evaluate it
			// for the read (cheap and simple).
			if err := l.expr(st.Index); err != nil {
				return err
			}
			l.emit(Instr{Op: OpIndex})
			if err := l.expr(st.X); err != nil {
				return err
			}
			l.emit(Instr{Op: binOp(st.Op)})
		}
		l.emit(Instr{Op: OpStoreIndex, A: l.slot(st.Name)})
	case *seamless.ReturnStmt:
		if st.X == nil {
			l.emit(Instr{Op: OpRetNone})
			return nil
		}
		if err := l.expr(st.X); err != nil {
			return err
		}
		l.emit(Instr{Op: OpRet})
	case *seamless.ExprStmt:
		if err := l.expr(st.X); err != nil {
			return err
		}
		l.emit(Instr{Op: OpPop})
	case *seamless.PassStmt:
	case *seamless.BreakStmt:
		if len(l.loops) == 0 {
			return fmt.Errorf("vm: break outside loop at line %d", st.Line)
		}
		top := l.loops[len(l.loops)-1]
		top.breakJumps = append(top.breakJumps, l.emit(Instr{Op: OpJmp}))
	case *seamless.ContinueStmt:
		if len(l.loops) == 0 {
			return fmt.Errorf("vm: continue outside loop at line %d", st.Line)
		}
		top := l.loops[len(l.loops)-1]
		top.contJumps = append(top.contJumps, l.emit(Instr{Op: OpJmp}))
	case *seamless.IfStmt:
		if err := l.expr(st.Cond); err != nil {
			return err
		}
		jfalse := l.emit(Instr{Op: OpJmpFalse})
		for _, sub := range st.Then {
			if err := l.stmt(sub); err != nil {
				return err
			}
		}
		if len(st.Else) == 0 {
			l.patch(jfalse, l.here())
			return nil
		}
		jend := l.emit(Instr{Op: OpJmp})
		l.patch(jfalse, l.here())
		for _, sub := range st.Else {
			if err := l.stmt(sub); err != nil {
				return err
			}
		}
		l.patch(jend, l.here())
	case *seamless.WhileStmt:
		top := &loopLabels{}
		l.loops = append(l.loops, top)
		condAt := l.here()
		if err := l.expr(st.Cond); err != nil {
			return err
		}
		jfalse := l.emit(Instr{Op: OpJmpFalse})
		for _, sub := range st.Body {
			if err := l.stmt(sub); err != nil {
				return err
			}
		}
		for _, j := range top.contJumps {
			l.patch(j, condAt)
		}
		l.emit(Instr{Op: OpJmp, A: condAt})
		end := l.here()
		l.patch(jfalse, end)
		for _, j := range top.breakJumps {
			l.patch(j, end)
		}
		l.loops = l.loops[:len(l.loops)-1]
	case *seamless.ForStmt:
		return l.forStmt(st)
	default:
		return fmt.Errorf("vm: unknown statement %T", s)
	}
	return nil
}

// forStmt lowers "for v in range(start, stop, step)". Stop and step are
// evaluated once into hidden slots, matching Python semantics.
func (l *lowerer) forStmt(st *seamless.ForStmt) error {
	vSlot := l.slot(st.Var)
	stopSlot := l.slot(fmt.Sprintf("$stop%d", l.here()))
	stepSlot := l.slot(fmt.Sprintf("$step%d", l.here()))
	// v = start (default 0).
	if st.Start != nil {
		if err := l.expr(st.Start); err != nil {
			return err
		}
	} else {
		l.emit(Instr{Op: OpConstI, I: 0})
	}
	l.emit(Instr{Op: OpStore, A: vSlot})
	if err := l.expr(st.Stop); err != nil {
		return err
	}
	l.emit(Instr{Op: OpStore, A: stopSlot})
	if st.Step != nil {
		if err := l.expr(st.Step); err != nil {
			return err
		}
	} else {
		l.emit(Instr{Op: OpConstI, I: 1})
	}
	l.emit(Instr{Op: OpStore, A: stepSlot})

	top := &loopLabels{}
	l.loops = append(l.loops, top)
	// Condition: (step > 0 and v < stop) or (step < 0 and v > stop).
	condAt := l.here()
	l.emit(Instr{Op: OpLoad, A: stepSlot})
	l.emit(Instr{Op: OpConstI, I: 0})
	l.emit(Instr{Op: OpGT})
	jNeg := l.emit(Instr{Op: OpJmpFalse})
	l.emit(Instr{Op: OpLoad, A: vSlot})
	l.emit(Instr{Op: OpLoad, A: stopSlot})
	l.emit(Instr{Op: OpLT})
	jCheck := l.emit(Instr{Op: OpJmp})
	l.patch(jNeg, l.here())
	l.emit(Instr{Op: OpLoad, A: vSlot})
	l.emit(Instr{Op: OpLoad, A: stopSlot})
	l.emit(Instr{Op: OpGT})
	l.patch(jCheck, l.here())
	jfalse := l.emit(Instr{Op: OpJmpFalse})

	for _, sub := range st.Body {
		if err := l.stmt(sub); err != nil {
			return err
		}
	}
	// Increment target for continue.
	incrAt := l.here()
	for _, j := range top.contJumps {
		l.patch(j, incrAt)
	}
	l.emit(Instr{Op: OpLoad, A: vSlot})
	l.emit(Instr{Op: OpLoad, A: stepSlot})
	l.emit(Instr{Op: OpAdd})
	l.emit(Instr{Op: OpStore, A: vSlot})
	l.emit(Instr{Op: OpJmp, A: condAt})
	end := l.here()
	l.patch(jfalse, end)
	for _, j := range top.breakJumps {
		l.patch(j, end)
	}
	l.loops = l.loops[:len(l.loops)-1]
	return nil
}

func binOp(op string) Op {
	switch op {
	case "+":
		return OpAdd
	case "-":
		return OpSub
	case "*":
		return OpMul
	case "/":
		return OpDiv
	case "//":
		return OpFloorDiv
	case "%":
		return OpMod
	case "**":
		return OpPow
	}
	panic(fmt.Sprintf("vm: unknown binary operator %q", op))
}

func cmpOp(op string) Op {
	switch op {
	case "<":
		return OpLT
	case "<=":
		return OpLE
	case ">":
		return OpGT
	case ">=":
		return OpGE
	case "==":
		return OpEQ
	case "!=":
		return OpNE
	}
	panic(fmt.Sprintf("vm: unknown comparison %q", op))
}

func (l *lowerer) expr(e seamless.Expr) error {
	switch x := e.(type) {
	case *seamless.IntLit:
		l.emit(Instr{Op: OpConstI, I: x.V})
	case *seamless.FloatLit:
		l.emit(Instr{Op: OpConstF, F: x.V})
	case *seamless.BoolLit:
		a := 0
		if x.V {
			a = 1
		}
		l.emit(Instr{Op: OpConstB, A: a})
	case *seamless.NameExpr:
		l.emit(Instr{Op: OpLoad, A: l.slot(x.Name)})
	case *seamless.UnaryExpr:
		if err := l.expr(x.X); err != nil {
			return err
		}
		if x.Op == "not" {
			l.emit(Instr{Op: OpNot})
		} else {
			l.emit(Instr{Op: OpNeg})
		}
	case *seamless.BinExpr:
		if err := l.expr(x.L); err != nil {
			return err
		}
		if err := l.expr(x.R); err != nil {
			return err
		}
		l.emit(Instr{Op: binOp(x.Op)})
	case *seamless.CmpExpr:
		if err := l.expr(x.L); err != nil {
			return err
		}
		if err := l.expr(x.R); err != nil {
			return err
		}
		l.emit(Instr{Op: cmpOp(x.Op)})
	case *seamless.BoolOpExpr:
		if err := l.expr(x.L); err != nil {
			return err
		}
		var j int
		if x.Op == "or" {
			j = l.emit(Instr{Op: OpJmpTrue})
		} else {
			j = l.emit(Instr{Op: OpJmpFalseKeep})
		}
		if err := l.expr(x.R); err != nil {
			return err
		}
		l.patch(j, l.here())
	case *seamless.IndexExpr:
		if err := l.expr(x.Arr); err != nil {
			return err
		}
		if err := l.expr(x.Index); err != nil {
			return err
		}
		l.emit(Instr{Op: OpIndex})
	case *seamless.CallExpr:
		for _, a := range x.Args {
			if err := l.expr(a); err != nil {
				return err
			}
		}
		c, err := l.resolveCall(x)
		if err != nil {
			return err
		}
		l.emit(Instr{Op: OpCall, A: l.calleeID(c), B: len(x.Args)})
	default:
		return fmt.Errorf("vm: unknown expression %T", e)
	}
	return nil
}

func (l *lowerer) resolveCall(x *seamless.CallExpr) (callee, error) {
	args := make([]seamless.Type, len(x.Args))
	for i, a := range x.Args {
		args[i] = l.tf.ExprTypes[a]
	}
	if seamless.IsBuiltin(x.Name, args) {
		return callee{kind: calleeBuiltin, name: x.Name}, nil
	}
	if _, ok := l.engine.prog.Module.ByName[x.Name]; ok {
		// Mirror inference-time promotion into float-annotated params.
		cfn := l.engine.prog.Module.ByName[x.Name]
		for i, p := range cfn.Params {
			if i < len(args) && p.Ann == seamless.TFloat && args[i] == seamless.TInt {
				args[i] = seamless.TFloat
			}
		}
		sub, err := l.engine.prog.Specialize(x.Name, args)
		if err != nil {
			return callee{}, err
		}
		return callee{kind: calleeModule, name: x.Name, tf: sub}, nil
	}
	if ext, ok := l.engine.prog.Externs[x.Name]; ok {
		return callee{kind: calleeExtern, name: x.Name, ext: ext}, nil
	}
	return callee{}, fmt.Errorf("vm: unknown function %q at line %d", x.Name, x.Line)
}
