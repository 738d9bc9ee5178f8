package serve

import (
	"errors"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"odinhpc/internal/fusion"
	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/compile"
)

// TestExprAcceptAndEvaluate sweeps accepted grammar: the stack-VM oracle
// must give the hand-computed values (variables pinned via varFill), and the
// served sum on a two-rank group must be the oracle's.
func TestExprAcceptAndEvaluate(t *testing.T) {
	x := func(g int) float64 { return varFill("x", g) }
	y := func(g int) float64 { return varFill("y", g) }
	cases := []struct {
		src  string
		want func(g int) float64
		vars []string
	}{
		{"x", x, []string{"x"}},
		{"  x + y*2", func(g int) float64 { return x(g) + y(g)*2 }, []string{"x", "y"}},
		{"-x", func(g int) float64 { return -x(g) }, []string{"x"}},
		{"+x - -y", func(g int) float64 { return x(g) + y(g) }, []string{"x", "y"}},
		{"(x - y) / (y + 3)", func(g int) float64 { return (x(g) - y(g)) / (y(g) + 3) }, []string{"x", "y"}},
		{"sqrt(abs(x))", func(g int) float64 { return math.Sqrt(math.Abs(x(g))) }, []string{"x"}},
		{"hypot(x, y)", func(g int) float64 { return math.Hypot(x(g), y(g)) }, []string{"x", "y"}},
		{"square(sin(x)) + square(cos(x))", func(g int) float64 {
			s, c := math.Sin(x(g)), math.Cos(x(g))
			return s*s + c*c
		}, []string{"x"}},
		{"exp(-x*x)", func(g int) float64 { return math.Exp(-x(g) * x(g)) }, []string{"x"}},
		{"1e2 - x", func(g int) float64 { return 100 - x(g) }, []string{"x"}},
		{"y ** 2 // x % 3 + log(x)", func(g int) float64 {
			return math.Mod(math.Floor(math.Pow(y(g), 2)/x(g)), 3) + math.Log(x(g))
		}, []string{"x", "y"}},
		{"sqrt(2) * sqrt", func(g int) float64 { return math.Sqrt2 * varFill("sqrt", g) }, []string{"sqrt"}},
		{"(x +\n y) * 2 # twice", func(g int) float64 { return (x(g) + y(g)) * 2 }, []string{"x", "y"}},
	}
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()
	for _, tc := range cases {
		req := &ExprRequest{Expr: tc.src, N: 101}
		if err := req.Validate(); err != nil {
			t.Errorf("validate %q: %v", tc.src, err)
			continue
		}
		if !reflect.DeepEqual(req.vars, tc.vars) {
			t.Errorf("%q: vars = %v, want %v", tc.src, req.vars, tc.vars)
			continue
		}
		req.Expr = strings.TrimSpace(req.Expr) // the oracle wraps it in a def
		oracle := exprOracle(req)
		for _, g := range []int{0, 1, 7, 100} {
			if got, want := oracle[g], tc.want(g); math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Errorf("%q at g=%d: oracle %g, want %g", tc.src, g, got, want)
			}
		}
		out, err := s.Do("t", req.Job())
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		if err := checkExpr(out, exprReference(req)); err != nil {
			t.Errorf("%q: %v", tc.src, err)
		}
	}
}

// exprRejects are sources Validate must refuse, with a fragment of the
// front end's message. They seed FuzzExprSource too.
var exprRejects = []struct{ src, wantSub string }{
	{"x +", "unexpected token NEWLINE"},
	{"(x", `expected ")"`},
	{"x)", `expected "NEWLINE"`},
	{"x y", `expected "NEWLINE"`},
	{"foo(x)", "unknown function"},
	{"hypot(x)", "takes 2 argument"},
	{"sqrt(x, y)", "takes 1 argument"},
	{"sqrt()", "takes 1 argument"},
	{"1..2", "bad float literal"},
	{"x $ y", "unexpected character"},
	{"x\n+ y", `expected "EOF"`},
	{"x\n  + y", `expected "EOF"`},
	{"x[0]", "IndexExpr is not an array expression"},
	{"x < y", "CmpExpr is not an array expression"},
	{"x and y", "BoolOpExpr is not an array expression"},
	{"not x", "UnaryExpr is not an array expression"},
	{"x + True", "BoolLit is not an array expression"},
	{"x = y", `expected "NEWLINE"`},
	{"for + x", "unexpected token KEYWORD"}, // keywords are not variable names
	{"99999999999999999999 * x", "bad integer literal"},
}

// TestExprReject pins the error paths: each malformed input must fail
// validation as a bad request whose message names the problem and where.
func TestExprReject(t *testing.T) {
	for _, tc := range exprRejects {
		err := (&ExprRequest{Expr: tc.src, N: 16}).Validate()
		var bad *BadRequestError
		if !errors.As(err, &bad) {
			t.Errorf("validate %q: %v, want a *BadRequestError containing %q", tc.src, err, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) || !lineCol.MatchString(err.Error()) {
			t.Errorf("validate %q: error %q does not contain %q and a line:col", tc.src, err, tc.wantSub)
		}
	}
}

// lineCol is the position prefix of a seamless front-end error.
var lineCol = regexp.MustCompile(`seamless: \d+:\d+: `)

// FuzzExprSource throws hostile source at Validate: it must never panic;
// it must refuse with a *BadRequestError, which for anything but the caps
// (length, variable count) carries the seamless line:col; and what it
// accepts, the lowering the job runs must accept too.
func FuzzExprSource(f *testing.F) {
	for _, tc := range exprRejects {
		f.Add(tc.src)
	}
	for _, src := range []string{
		"", "1 + 2", "a+b+c+d+e+f+g+h+i", "x", "sqrt(x*x+y*y)+exp(-x)*sin(y)", "2 ** -x // 3 % y",
		"(x +\n y)", "x # trailing comment", "\tx", strings.Repeat("(", 2000) + "x" + strings.Repeat(")", 2000),
		strings.Repeat("-", 4000) + "x", "x +\x00 y", "\xe9 + x", "hypot(x,,y)", "1e999 * x", "x ** ** y",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		req := &ExprRequest{Expr: src, N: 16}
		err := req.Validate()
		if err != nil {
			var bad *BadRequestError
			if !errors.As(err, &bad) {
				t.Fatalf("%q rejected with %T (%v), want *BadRequestError", src, err, err)
			}
			capped := len(src) == 0 || len(src) > maxExprLen || strings.Contains(err.Error(), "variables")
			if !capped && !lineCol.MatchString(err.Error()) {
				t.Fatalf("%q rejected without a line:col: %v", src, err)
			}
			return
		}
		if len(req.vars) == 0 || len(req.vars) > maxExprVars || !sort.StringsAreSorted(req.vars) {
			t.Fatalf("%q accepted with vars %v", src, req.vars)
		}
		_, err = compile.Lower(req.ast, func(e seamless.Expr) (*fusion.Expr, error) {
			if nx, ok := e.(*seamless.NameExpr); ok {
				return fusion.SliceSlot(sort.SearchStrings(req.vars, nx.Name)), nil
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%q passed Validate but does not lower: %v", src, err)
		}
	})
}

// TestExprRequestValidateCaps pins the request-level caps.
func TestExprRequestValidateCaps(t *testing.T) {
	if err := (&ExprRequest{Expr: "x", N: 16}).Validate(); err != nil {
		t.Errorf("minimal request rejected: %v", err)
	}
	for _, req := range []*ExprRequest{
		{Expr: "x", N: 0},
		{Expr: "x", N: maxExprN + 1},
		{Expr: "", N: 16},
		{Expr: "1 + 2", N: 16},             // no array leaves
		{Expr: "a+b+c+d+e+f+g+h+i", N: 16}, // 9 variables over the cap
		{Expr: strings.Repeat("x+", maxExprLen/2+1) + "x", N: 16},
	} {
		if err := req.Validate(); err == nil {
			t.Errorf("request %+v accepted, want validation error", req)
		} else if _, ok := err.(*BadRequestError); !ok {
			t.Errorf("request %+v rejected with %T, want *BadRequestError", req, err)
		}
	}
}

// TestSolveRequestValidate pins solve validation and defaulting.
func TestSolveRequestValidate(t *testing.T) {
	ok := &SolveRequest{Kind: "laplace1d", N: 10}
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	}
	if ok.Solver != "cg" || ok.RHS != "ones" {
		t.Errorf("defaults not applied: %+v", ok)
	}
	for _, req := range []*SolveRequest{
		{Kind: "mystery", N: 10},
		{Kind: "laplace1d", N: 0},
		{Kind: "laplace1d", N: maxSolveN + 1},
		{Kind: "laplace2d", NX: 4},
		{Kind: "laplace3d", NX: 4, NY: 4},
		{Kind: "coo", N: 4},
		{Kind: "coo", N: 4, Entries: []COOEntry{{Row: 9, Col: 0, Val: 1}}},
		{Kind: "laplace1d", N: 10, Solver: "gmres"},
		{Kind: "laplace1d", N: 10, MaxIter: maxIterCap + 1},
		{Kind: "laplace1d", N: 10, RHS: "zeros"},
	} {
		if err := req.Validate(); err == nil {
			t.Errorf("request %+v accepted, want validation error", req)
		}
	}
}
