package seamless

import "fmt"

// Type is a static type in the Seamless kernel language.
type Type int

// Types. TUnknown marks unannotated slots before inference; TNone is the
// return type of functions without a return value.
const (
	TUnknown Type = iota
	TInt
	TFloat
	TBool
	TArrFloat
	TArrInt
	TNone
)

func (t Type) String() string {
	switch t {
	case TUnknown:
		return "unknown"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TArrFloat:
		return "float[:]"
	case TArrInt:
		return "int[:]"
	case TNone:
		return "none"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// IsArray reports whether t is an array type.
func (t Type) IsArray() bool { return t == TArrFloat || t == TArrInt }

// IsNumeric reports whether t is a scalar numeric type.
func (t Type) IsNumeric() bool { return t == TInt || t == TFloat }

// Module is a parsed source file: an ordered list of function definitions.
type Module struct {
	Funcs  []*FuncDef
	ByName map[string]*FuncDef
	Source string
}

// FuncDef is one "def".
type FuncDef struct {
	Name   string
	Params []Param
	RetAnn Type // TUnknown when unannotated
	Body   []Stmt
	Line   int
}

// Param is one formal parameter with an optional annotation.
type Param struct {
	Name string
	Ann  Type // TUnknown when unannotated
}

// Pos is an embedded source position.
type Pos struct {
	Line, Col int
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// AssignStmt is "name = expr".
type AssignStmt struct {
	Pos
	Name string
	X    Expr
}

// AugAssignStmt is "name op= expr".
type AugAssignStmt struct {
	Pos
	Name string
	Op   string // "+", "-", "*", "/", "%"
	X    Expr
}

// IndexAssignStmt is "name[idx] = expr" or "name[idx] op= expr".
type IndexAssignStmt struct {
	Pos
	Name  string
	Index Expr
	Op    string // "" for plain assignment
	X     Expr
}

// ReturnStmt is "return [expr]".
type ReturnStmt struct {
	Pos
	X Expr // nil for bare return
}

// IfStmt is an if/elif/else chain (elif is a nested IfStmt in Else).
type IfStmt struct {
	Pos
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
}

// WhileStmt is "while cond:".
type WhileStmt struct {
	Pos
	Cond Expr
	Body []Stmt
}

// ForStmt is "for v in range(start, stop, step):". Start and Step may be
// nil (defaults 0 and 1).
type ForStmt struct {
	Pos
	Var   string
	Start Expr
	Stop  Expr
	Step  Expr
	Body  []Stmt
}

// ExprStmt is a bare expression evaluated for effect.
type ExprStmt struct {
	Pos
	X Expr
}

// PassStmt is "pass".
type PassStmt struct{ Pos }

// BreakStmt is "break".
type BreakStmt struct{ Pos }

// ContinueStmt is "continue".
type ContinueStmt struct{ Pos }

func (*AssignStmt) stmt()      {}
func (*AugAssignStmt) stmt()   {}
func (*IndexAssignStmt) stmt() {}
func (*ReturnStmt) stmt()      {}
func (*IfStmt) stmt()          {}
func (*WhileStmt) stmt()       {}
func (*ForStmt) stmt()         {}
func (*ExprStmt) stmt()        {}
func (*PassStmt) stmt()        {}
func (*BreakStmt) stmt()       {}
func (*ContinueStmt) stmt()    {}

// Expr is an expression node.
type Expr interface{ expr() }

// IntLit is an integer literal.
type IntLit struct {
	Pos
	V int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Pos
	V float64
}

// BoolLit is True or False.
type BoolLit struct {
	Pos
	V bool
}

// NameExpr references a variable or parameter.
type NameExpr struct {
	Pos
	Name string
}

// UnaryExpr is "-x" or "not x".
type UnaryExpr struct {
	Pos
	Op string
	X  Expr
}

// BinExpr is an arithmetic binary operation: + - * / // % **.
type BinExpr struct {
	Pos
	Op   string
	L, R Expr
}

// CmpExpr is a comparison: < <= > >= == !=.
type CmpExpr struct {
	Pos
	Op   string
	L, R Expr
}

// BoolOpExpr is short-circuit "and"/"or".
type BoolOpExpr struct {
	Pos
	Op   string
	L, R Expr
}

// IndexExpr is "arr[idx]".
type IndexExpr struct {
	Pos
	Arr   Expr
	Index Expr
}

// CallExpr calls a builtin, a module function, or an FFI binding.
type CallExpr struct {
	Pos
	Name string
	Args []Expr
}

func (*IntLit) expr()     {}
func (*FloatLit) expr()   {}
func (*BoolLit) expr()    {}
func (*NameExpr) expr()   {}
func (*UnaryExpr) expr()  {}
func (*BinExpr) expr()    {}
func (*CmpExpr) expr()    {}
func (*BoolOpExpr) expr() {}
func (*IndexExpr) expr()  {}
func (*CallExpr) expr()   {}

// ExprPos extracts the source position of any expression.
func ExprPos(e Expr) Pos {
	switch x := e.(type) {
	case *IntLit:
		return x.Pos
	case *FloatLit:
		return x.Pos
	case *BoolLit:
		return x.Pos
	case *NameExpr:
		return x.Pos
	case *UnaryExpr:
		return x.Pos
	case *BinExpr:
		return x.Pos
	case *CmpExpr:
		return x.Pos
	case *BoolOpExpr:
		return x.Pos
	case *IndexExpr:
		return x.Pos
	case *CallExpr:
		return x.Pos
	}
	return Pos{}
}
