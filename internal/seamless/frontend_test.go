package seamless

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// mustParse parses src and panics on a parse error.
func mustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("mustParse: %v", err))
	}
	return m
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("def f(x):\n    return x + 1\n")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"def", "f", "(", "x", ")", ":", "", "", "return", "x", "+", "1", "", "", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v", len(texts), texts)
	}
	for i, w := range want {
		if texts[i] != w {
			t.Fatalf("token %d = %q want %q (all: %v)", i, texts[i], w, texts)
		}
	}
	// Kind spot checks.
	if kinds[0] != TokKeyword || kinds[1] != TokName || kinds[6] != TokNewline || kinds[7] != TokIndent {
		t.Fatalf("kinds: %v", kinds)
	}
	if kinds[len(kinds)-1] != TokEOF || kinds[len(kinds)-2] != TokDedent {
		t.Fatalf("tail kinds: %v", kinds)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("def f():\n    return 1.5e-3 + 42 + .5\n")
	if err != nil {
		t.Fatal(err)
	}
	var nums []Token
	for _, tk := range toks {
		if tk.Kind == TokInt || tk.Kind == TokFloat {
			nums = append(nums, tk)
		}
	}
	if len(nums) != 3 {
		t.Fatalf("nums: %v", nums)
	}
	if nums[0].Kind != TokFloat || nums[0].Text != "1.5e-3" {
		t.Fatalf("float: %v", nums[0])
	}
	if nums[1].Kind != TokInt || nums[1].Text != "42" {
		t.Fatalf("int: %v", nums[1])
	}
	if nums[2].Kind != TokFloat || nums[2].Text != ".5" {
		t.Fatalf("leading-dot float: %v", nums[2])
	}
}

func TestLexCommentsAndBlankLines(t *testing.T) {
	src := "# header comment\n\ndef f():  # trailing\n\n    # indented comment\n    return 1\n"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks {
		if strings.Contains(tk.Text, "#") {
			t.Fatalf("comment leaked: %v", tk)
		}
	}
}

func TestLexIndentErrors(t *testing.T) {
	_, err := Lex("def f():\n        return 1\n    x = 2\n")
	if err == nil {
		t.Fatal("inconsistent dedent accepted")
	}
}

func TestLexUnknownChar(t *testing.T) {
	if _, err := Lex("def f():\n    return 1 @ 2\n"); err == nil {
		t.Fatal("@ accepted")
	}
}

func TestLexImplicitLineJoin(t *testing.T) {
	src := "def f(a,\n      b):\n    return a + b\n"
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs[0].Params) != 2 {
		t.Fatal("params across lines")
	}
}

func TestParseFullGrammar(t *testing.T) {
	src := `
def kernel(xs: float[:], n: int) -> float:
    total = 0.0
    i = 0
    while i < n:
        v = xs[i]
        if v > 0.0 and not (v > 100.0):
            total += v
        elif v < -1.0 or v == -5.0:
            total -= v
        else:
            pass
        i += 1
    for j in range(0, n, 2):
        if j == 4:
            continue
        if j > 10:
            break
        total = total + 0.5
    return total

def helper(a, b):
    return max(a, b) ** 2
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 2 {
		t.Fatalf("funcs: %d", len(m.Funcs))
	}
	k := m.ByName["kernel"]
	if k.RetAnn != TFloat {
		t.Fatalf("ret ann %v", k.RetAnn)
	}
	if k.Params[0].Ann != TArrFloat || k.Params[1].Ann != TInt {
		t.Fatalf("param anns: %+v", k.Params)
	}
	if len(k.Body) != 5 {
		t.Fatalf("body stmts: %d", len(k.Body))
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no-colon":       "def f()\n    return 1\n",
		"dup-func":       "def f():\n    return 1\ndef f():\n    return 2\n",
		"bad-type":       "def f(x: str):\n    return 1\n",
		"empty-block":    "def f():\ndef g():\n    return 1\n",
		"range-arity":    "def f():\n    for i in range(1,2,3,4):\n        pass\n",
		"stray-op":       "def f():\n    return +\n",
		"bad-array-type": "def f(x: bool[:]):\n    return 1\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	m := mustParse("def f():\n    return 1 + 2 * 3 ** 2\n")
	ret := m.Funcs[0].Body[0].(*ReturnStmt)
	add, ok := ret.X.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top is %T", ret.X)
	}
	mul, ok := add.R.(*BinExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("right of + is %T", add.R)
	}
	pow, ok := mul.R.(*BinExpr)
	if !ok || pow.Op != "**" {
		t.Fatalf("right of * is %T", mul.R)
	}
}

func TestParseChainedComparisons(t *testing.T) {
	m := mustParse("def f(a, b, c):\n    return a < b <= c\n")
	ret := m.Funcs[0].Body[0].(*ReturnStmt)
	and, ok := ret.X.(*BoolOpExpr)
	if !ok || and.Op != "and" {
		t.Fatalf("chain top is %T", ret.X)
	}
	l, ok := and.L.(*CmpExpr)
	if !ok || l.Op != "<" {
		t.Fatalf("left is %T", and.L)
	}
	r, ok := and.R.(*CmpExpr)
	if !ok || r.Op != "<=" {
		t.Fatalf("right is %T", and.R)
	}
	// The middle operand is shared.
	if l.R != r.L {
		t.Fatal("middle operand not shared")
	}
}

func TestParseUnaryPlusDropped(t *testing.T) {
	m := mustParse("def f():\n    return +5\n")
	ret := m.Funcs[0].Body[0].(*ReturnStmt)
	if _, ok := ret.X.(*IntLit); !ok {
		t.Fatalf("unary plus not dropped: %T", ret.X)
	}
}

func inferOf(t *testing.T, src, fn string, args ...Type) (*TypedFn, error) {
	t.Helper()
	prog, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Specialize(fn, args)
}

func TestInferSum(t *testing.T) {
	src := `
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res += it[i]
    return res
`
	tf, err := inferOf(t, src, "sum", TArrFloat)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Ret != TFloat {
		t.Fatalf("ret %v", tf.Ret)
	}
	if tf.VarTypes["res"] != TFloat || tf.VarTypes["i"] != TInt || tf.VarTypes["it"] != TArrFloat {
		t.Fatalf("vars: %v", tf.VarTypes)
	}
}

func TestInferIntToFloatPromotion(t *testing.T) {
	src := `
def f(n):
    x = 0
    for i in range(n):
        x = x + 0.5
    return x
`
	tf, err := inferOf(t, src, "f", TInt)
	if err != nil {
		t.Fatal(err)
	}
	if tf.VarTypes["x"] != TFloat || tf.Ret != TFloat {
		t.Fatalf("promotion failed: %v ret %v", tf.VarTypes, tf.Ret)
	}
}

func TestInferTrueDivision(t *testing.T) {
	tf, err := inferOf(t, "def f(a, b):\n    return a / b\n", "f", TInt, TInt)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Ret != TFloat {
		t.Fatalf("int/int must be float, got %v", tf.Ret)
	}
	tf2, err := inferOf(t, "def g(a, b):\n    return a // b\n", "g", TInt, TInt)
	if err != nil {
		t.Fatal(err)
	}
	if tf2.Ret != TInt {
		t.Fatalf("int//int must be int, got %v", tf2.Ret)
	}
}

func TestInferSpecializationPerType(t *testing.T) {
	src := "def double(x):\n    return x + x\n"
	prog, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := prog.Specialize("double", []Type{TInt})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := prog.Specialize("double", []Type{TFloat})
	if err != nil {
		t.Fatal(err)
	}
	if fi.Ret != TInt || ff.Ret != TFloat {
		t.Fatalf("specializations: %v %v", fi.Ret, ff.Ret)
	}
	if len(prog.specs) != 2 {
		t.Fatalf("specs: %v", prog.specs)
	}
	// Memoized: same pointer.
	fi2, _ := prog.Specialize("double", []Type{TInt})
	if fi2 != fi {
		t.Fatal("not memoized")
	}
}

func TestInferAnnotationEnforced(t *testing.T) {
	src := "def f(x: float) -> int:\n    return x\n"
	if _, err := inferOf(t, src, "f", TFloat); err == nil {
		t.Fatal("float return into int annotation accepted")
	}
	// Int argument into float annotation promotes.
	src2 := "def g(x: float):\n    return x * 2.0\n"
	tf, err := inferOf(t, src2, "g", TInt)
	if err != nil {
		t.Fatal(err)
	}
	if tf.VarTypes["x"] != TFloat {
		t.Fatal("int->float param promotion")
	}
	// Bool argument into float annotation fails.
	if _, err := inferOf(t, src2, "g", TBool); err == nil {
		t.Fatal("bool into float annotation accepted")
	}
}

func TestInferRecursionNeedsAnnotation(t *testing.T) {
	bad := "def fib(n):\n    if n < 2:\n        return n\n    return fib(n-1) + fib(n-2)\n"
	if _, err := inferOf(t, bad, "fib", TInt); err == nil {
		t.Fatal("unannotated recursion accepted")
	}
	good := "def fib(n) -> int:\n    if n < 2:\n        return n\n    return fib(n-1) + fib(n-2)\n"
	tf, err := inferOf(t, good, "fib", TInt)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Ret != TInt {
		t.Fatalf("ret %v", tf.Ret)
	}
}

func TestInferErrors(t *testing.T) {
	cases := map[string]struct {
		src  string
		args []Type
	}{
		"undefined-var":   {"def f():\n    return y\n", nil},
		"bool-arith":      {"def f(b: bool):\n    return b + 1\n", []Type{TBool}},
		"type-flip":       {"def f(x: float[:]):\n    a = 1\n    a = x\n    return 0\n", []Type{TArrFloat}},
		"non-bool-cond":   {"def f(x):\n    if x:\n        pass\n    return 0\n", []Type{TInt}},
		"float-range":     {"def f(x):\n    for i in range(x):\n        pass\n    return 0\n", []Type{TFloat}},
		"index-non-array": {"def f(x):\n    return x[0]\n", []Type{TInt}},
		"float-index":     {"def f(a: float[:], i):\n    return a[i]\n", []Type{TArrFloat, TFloat}},
		"unknown-call":    {"def f():\n    return mystery(1)\n", nil},
		"arity":           {"def f(a, b):\n    return a\ndef g():\n    return f(1)\n", nil},
		"store-arr-type":  {"def f(a: int[:]):\n    a[0] = 1.5\n    return 0\n", []Type{TArrInt}},
		"aug-undefined":   {"def f():\n    z += 1\n    return 0\n", nil},
		"ret-conflict":    {"def f(b: bool):\n    if b:\n        return 1\n    return True\n", []Type{TBool}},
	}
	for name, tc := range cases {
		src := tc.src
		fnName := "f"
		if name == "arity" {
			fnName = "g"
		}
		if _, err := inferOf(t, src, fnName, tc.args...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuiltinTypes(t *testing.T) {
	src := `
def f(a: float[:], n: int):
    x = len(a)
    y = sqrt(n)
    z = abs(-3)
    w = abs(-3.5)
    m = min(1, 2)
    mf = max(1.0, 2)
    b = zeros(4)
    c = izeros(4)
    return float(x) + y + float(z) + w + float(m) + mf + b[0] + float(c[0])
`
	tf, err := inferOf(t, src, "f", TArrFloat, TInt)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Type{"x": TInt, "y": TFloat, "z": TInt, "w": TFloat, "m": TInt, "mf": TFloat, "b": TArrFloat, "c": TArrInt}
	for v, wt := range want {
		if tf.VarTypes[v] != wt {
			t.Errorf("%s: %v want %v", v, tf.VarTypes[v], wt)
		}
	}
}

func TestExternInference(t *testing.T) {
	prog, err := CompileSource("def f(x):\n    return myatan2(x, 2)\n")
	if err != nil {
		t.Fatal(err)
	}
	prog.Bind("myatan2", Extern{NArgs: 2, Fn: func(a ...float64) float64 { return a[0] }})
	tf, err := prog.Specialize("f", []Type{TFloat})
	if err != nil {
		t.Fatal(err)
	}
	if tf.Ret != TFloat {
		t.Fatalf("extern ret %v", tf.Ret)
	}
	// Wrong arity.
	prog2, _ := CompileSource("def f(x):\n    return myatan2(x)\n")
	prog2.Bind("myatan2", Extern{NArgs: 2, Fn: func(a ...float64) float64 { return a[0] }})
	if _, err := prog2.Specialize("f", []Type{TFloat}); err == nil {
		t.Fatal("extern arity accepted")
	}
}

func TestErrorPositions(t *testing.T) {
	// Front-end errors carry 1-based line:col positions.
	_, err := Parse("def f():\n    return 1 +\n")
	if err == nil {
		t.Fatal("accepted")
	}
	var fe *Error
	if !errorsAs(err, &fe) {
		t.Fatalf("error type %T", err)
	}
	if fe.Line != 2 {
		t.Fatalf("error line %d, want 2", fe.Line)
	}
	if fe.Error() == "" {
		t.Fatal("empty message")
	}
}

// errorsAs is a tiny local stand-in for errors.As to keep imports minimal.
func errorsAs(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestTokenStrings(t *testing.T) {
	toks, err := Lex("def f():\n    return 1\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks {
		if tk.String() == "" || tk.Kind.String() == "" {
			t.Fatal("empty token rendering")
		}
	}
	if TokKind(99).String() == "" {
		t.Fatal("unknown kind rendering")
	}
}

func TestParenthesizedTrailers(t *testing.T) {
	// Subscripts chain off parenthesized expressions.
	src := "def f(a: float[:], i):\n    return (a)[i] + (a)[i + 1]\n"
	tf, err := inferOf(t, src, "f", TArrFloat, TInt)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Ret != TFloat {
		t.Fatalf("ret %v", tf.Ret)
	}
}

func TestLexAllOperators(t *testing.T) {
	src := "def f(a, b):\n    c = a ** b // 2 % 3\n    c += 1\n    c -= 1\n    c *= 2\n    c /= 2.0\n    c %= 5\n    return c <= b != a >= 0\n"
	if _, err := Lex(src); err != nil {
		t.Fatal(err)
	}
}

func TestValueHelpers(t *testing.T) {
	if IntV(3).AsFloat() != 3.0 || FloatV(2.7).AsInt() != 2 {
		t.Fatal("conversions")
	}
	vals := []Value{IntV(1), FloatV(1.5), BoolV(true), ArrFV([]float64{1}), ArrIV([]int64{2}), NoneV()}
	for _, v := range vals {
		if v.String() == "" {
			t.Fatal("String")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AsFloat on bool should panic")
		}
	}()
	BoolV(true).AsFloat()
}

// TestParserNeverPanics fuzzes the front end with random token soup and
// with random mutations of a valid program: every input must produce
// either a Module or an error, never a panic.
func TestParserNeverPanics(t *testing.T) {
	base := "def f(a, b):\n    c = a + b\n    for i in range(10):\n        c += float(i)\n    if c > 0.0:\n        return c\n    return -c\n"
	words := []string{
		"def", "return", "if", "elif", "else", "while", "for", "in", "range",
		"(", ")", "[", "]", ":", ",", "+", "-", "*", "/", "//", "%", "**",
		"<", "<=", "==", "!=", "=", "->", "x", "y", "f", "1", "2.5", "True",
		"not", "and", "or", "\n", "    ", "pass", "break", "continue",
	}
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("seed %d: parser panicked: %v", seed, r)
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		var src string
		if seed%2 == 0 {
			// Random token soup.
			var b []byte
			for i := 0; i < rng.Intn(80); i++ {
				b = append(b, words[rng.Intn(len(words))]...)
				if rng.Intn(3) == 0 {
					b = append(b, ' ')
				}
			}
			src = string(b)
		} else {
			// Mutate a valid program: delete a random span.
			lo := rng.Intn(len(base))
			hi := lo + rng.Intn(len(base)-lo)
			src = base[:lo] + base[hi:]
		}
		m, err := Parse(src)
		if err == nil && m != nil {
			// If it parsed, inference must also not panic.
			prog := NewProgram(m)
			for _, fn := range m.Funcs {
				args := make([]Type, len(fn.Params))
				for i := range args {
					args[i] = TFloat
				}
				_, _ = prog.Specialize(fn.Name, args)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{TInt: "int", TFloat: "float", TBool: "bool", TArrFloat: "float[:]", TArrInt: "int[:]", TNone: "none", TUnknown: "unknown"} {
		if ty.String() != want {
			t.Errorf("%v", ty)
		}
	}
	if !TArrFloat.IsArray() || TInt.IsArray() || !TInt.IsNumeric() || TBool.IsNumeric() {
		t.Fatal("predicates")
	}
}
