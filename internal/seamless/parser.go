package seamless

import "strconv"

// Parse lexes and parses a module of function definitions.
func Parse(src string) (*Module, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m := &Module{ByName: map[string]*FuncDef{}, Source: src}
	for !p.at(TokEOF, "") {
		// Allow stray newlines between defs.
		if p.at(TokNewline, "") {
			p.next()
			continue
		}
		fn, err := p.parseDef()
		if err != nil {
			return nil, err
		}
		if _, dup := m.ByName[fn.Name]; dup {
			return nil, errAt(fn.Line, 1, "duplicate function %q", fn.Name)
		}
		m.Funcs = append(m.Funcs, fn)
		m.ByName[fn.Name] = fn
	}
	if len(m.Funcs) == 0 {
		return nil, errAt(1, 1, "module defines no functions")
	}
	return m, nil
}

// ParseExpr lexes and parses src as exactly one expression — the grammar a
// kernel body's right-hand sides use, for callers whose whole input is an
// expression (odinserve's /v1/expr). Anything after the expression, a
// second line included, is an error; leading blanks are not.
func ParseExpr(src string) (Expr, error) {
	var buf [64]Token
	toks, err := lexAppend(buf[:0], src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	indented := p.accept(TokIndent, "")
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline, ""); err != nil {
		return nil, err
	}
	if indented {
		p.accept(TokDedent, "")
	}
	if _, err := p.expect(TokEOF, ""); err != nil {
		return nil, err
	}
	return x, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) (Token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = kind.String()
		}
		return t, errAt(t.Line, t.Col, "expected %q, found %v", want, t)
	}
	return p.next(), nil
}

func (p *parser) parseDef() (*FuncDef, error) {
	start, err := p.expect(TokKeyword, "def")
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokName, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	fn := &FuncDef{Name: nameTok.Text, Line: start.Line}
	for !p.at(TokOp, ")") {
		pt, err := p.expect(TokName, "")
		if err != nil {
			return nil, err
		}
		param := Param{Name: pt.Text, Ann: TUnknown}
		if p.accept(TokOp, ":") {
			ann, err := p.parseType()
			if err != nil {
				return nil, err
			}
			param.Ann = ann
		}
		fn.Params = append(fn.Params, param)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	fn.RetAnn = TUnknown
	if p.accept(TokOp, "->") {
		ann, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn.RetAnn = ann
	}
	if _, err := p.expect(TokOp, ":"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// parseType parses "int", "float", "bool", optionally suffixed "[:]" for
// arrays.
func (p *parser) parseType() (Type, error) {
	t, err := p.expect(TokName, "")
	if err != nil {
		return TUnknown, err
	}
	var base Type
	switch t.Text {
	case "int":
		base = TInt
	case "float":
		base = TFloat
	case "bool":
		base = TBool
	default:
		return TUnknown, errAt(t.Line, t.Col, "unknown type %q", t.Text)
	}
	if p.accept(TokOp, "[") {
		if _, err := p.expect(TokOp, ":"); err != nil {
			return TUnknown, err
		}
		if _, err := p.expect(TokOp, "]"); err != nil {
			return TUnknown, err
		}
		switch base {
		case TInt:
			return TArrInt, nil
		case TFloat:
			return TArrFloat, nil
		default:
			return TUnknown, errAt(t.Line, t.Col, "no array of %v", base)
		}
	}
	return base, nil
}

// parseBlock parses NEWLINE INDENT stmts DEDENT.
func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokNewline, ""); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIndent, ""); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.at(TokDedent, "") && !p.at(TokEOF, "") {
		if p.accept(TokNewline, "") {
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if _, err := p.expect(TokDedent, ""); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		t := p.cur()
		return nil, errAt(t.Line, t.Col, "empty block")
	}
	return out, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	pos := Pos{t.Line, t.Col}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "pass":
			p.next()
			_, err := p.expect(TokNewline, "")
			return &PassStmt{pos}, err
		case "break":
			p.next()
			_, err := p.expect(TokNewline, "")
			return &BreakStmt{pos}, err
		case "continue":
			p.next()
			_, err := p.expect(TokNewline, "")
			return &ContinueStmt{pos}, err
		case "return":
			p.next()
			if p.accept(TokNewline, "") {
				return &ReturnStmt{Pos: pos}, nil
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokNewline, ""); err != nil {
				return nil, err
			}
			return &ReturnStmt{Pos: pos, X: x}, nil
		case "if":
			return p.parseIf()
		case "while":
			p.next()
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ":"); err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return &WhileStmt{Pos: pos, Cond: cond, Body: body}, nil
		case "for":
			return p.parseFor()
		}
	}
	// Assignment forms start with NAME.
	if t.Kind == TokName {
		nxt := p.toks[p.pos+1]
		if nxt.Kind == TokOp {
			switch nxt.Text {
			case "=":
				p.next()
				p.next()
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokNewline, ""); err != nil {
					return nil, err
				}
				return &AssignStmt{Pos: pos, Name: t.Text, X: x}, nil
			case "+=", "-=", "*=", "/=", "%=":
				p.next()
				p.next()
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokNewline, ""); err != nil {
					return nil, err
				}
				return &AugAssignStmt{Pos: pos, Name: t.Text, Op: nxt.Text[:1], X: x}, nil
			case "[":
				// Could be an index assignment or an index expression
				// statement; parse the subscript then decide.
				save := p.pos
				p.next() // name
				p.next() // [
				idx, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokOp, "]"); err != nil {
					return nil, err
				}
				op := p.cur()
				if op.Kind == TokOp {
					switch op.Text {
					case "=":
						p.next()
						x, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						if _, err := p.expect(TokNewline, ""); err != nil {
							return nil, err
						}
						return &IndexAssignStmt{Pos: pos, Name: t.Text, Index: idx, X: x}, nil
					case "+=", "-=", "*=", "/=", "%=":
						p.next()
						x, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						if _, err := p.expect(TokNewline, ""); err != nil {
							return nil, err
						}
						return &IndexAssignStmt{Pos: pos, Name: t.Text, Index: idx, Op: op.Text[:1], X: x}, nil
					}
				}
				// Rewind: plain expression statement.
				p.pos = save
			}
		}
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline, ""); err != nil {
		return nil, err
	}
	return &ExprStmt{Pos: pos, X: x}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	t := p.next() // if / elif
	pos := Pos{t.Line, t.Col}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ":"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &IfStmt{Pos: pos, Cond: cond, Then: then}
	switch {
	case p.at(TokKeyword, "elif"):
		sub, err := p.parseIf()
		if err != nil {
			return nil, err
		}
		node.Else = []Stmt{sub}
	case p.accept(TokKeyword, "else"):
		if _, err := p.expect(TokOp, ":"); err != nil {
			return nil, err
		}
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *parser) parseFor() (Stmt, error) {
	t := p.next() // for
	pos := Pos{t.Line, t.Col}
	v, err := p.expect(TokName, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "in"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "range"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var args []Expr
	for {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, x)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ":"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f := &ForStmt{Pos: pos, Var: v.Text, Body: body}
	switch len(args) {
	case 1:
		f.Stop = args[0]
	case 2:
		f.Start, f.Stop = args[0], args[1]
	case 3:
		f.Start, f.Stop, f.Step = args[0], args[1], args[2]
	default:
		return nil, errAt(t.Line, t.Col, "range() takes 1-3 arguments, got %d", len(args))
	}
	return f, nil
}

// Expression grammar: or > and > not > comparison > addition >
// multiplication > unary > power > atom.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "or") {
		t := p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BoolOpExpr{Pos: Pos{t.Line, t.Col}, Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "and") {
		t := p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BoolOpExpr{Pos: Pos{t.Line, t.Col}, Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.at(TokKeyword, "not") {
		t := p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: Pos{t.Line, t.Col}, Op: "not", X: x}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]bool{"<": true, "<=": true, ">": true, ">=": true, "==": true, "!=": true}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Python chained comparisons: a < b <= c desugars to
	// (a < b) and (b <= c). Note the middle operand is re-evaluated, which
	// is observable only for side-effecting calls; numeric kernels are pure.
	var chain Expr
	prev := l
	for p.cur().Kind == TokOp && cmpOps[p.cur().Text] {
		t := p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		cmp := &CmpExpr{Pos: Pos{t.Line, t.Col}, Op: t.Text, L: prev, R: r}
		if chain == nil {
			chain = cmp
		} else {
			chain = &BoolOpExpr{Pos: Pos{t.Line, t.Col}, Op: "and", L: chain, R: cmp}
		}
		prev = r
	}
	if chain != nil {
		return chain, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOp && (p.cur().Text == "+" || p.cur().Text == "-") {
		t := p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Pos: Pos{t.Line, t.Col}, Op: t.Text, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOp {
		op := p.cur().Text
		if op != "*" && op != "/" && op != "//" && op != "%" {
			break
		}
		t := p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Pos: Pos{t.Line, t.Col}, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.at(TokOp, "-") || p.at(TokOp, "+") {
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Text == "+" {
			return x, nil
		}
		return &UnaryExpr{Pos: Pos{t.Line, t.Col}, Op: "-", X: x}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	l, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if p.at(TokOp, "**") {
		t := p.next()
		// Right associative; exponent binds unary minus.
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Pos: Pos{t.Line, t.Col}, Op: "**", L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	pos := Pos{t.Line, t.Col}
	switch {
	case t.Kind == TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad integer literal %q", t.Text)
		}
		return &IntLit{Pos: pos, V: v}, nil
	case t.Kind == TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad float literal %q", t.Text)
		}
		return &FloatLit{Pos: pos, V: v}, nil
	case t.Kind == TokKeyword && (t.Text == "True" || t.Text == "False"):
		p.next()
		return &BoolLit{Pos: pos, V: t.Text == "True"}, nil
	case t.Kind == TokName:
		p.next()
		name := t.Text
		if p.accept(TokOp, "(") {
			var args []Expr
			for !p.at(TokOp, ")") {
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, x)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return p.parseTrailer(&CallExpr{Pos: pos, Name: name, Args: args})
		}
		return p.parseTrailer(&NameExpr{Pos: pos, Name: name})
	case t.Kind == TokOp && t.Text == "(":
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return p.parseTrailer(x)
	}
	return nil, errAt(t.Line, t.Col, "unexpected token %v in expression", t)
}

// parseTrailer handles chained subscripts after an atom.
func (p *parser) parseTrailer(x Expr) (Expr, error) {
	for p.at(TokOp, "[") {
		t := p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "]"); err != nil {
			return nil, err
		}
		x = &IndexExpr{Pos: Pos{t.Line, t.Col}, Arr: x, Index: idx}
	}
	return x, nil
}
