package ffi

import (
	"math"
	"testing"

	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/compile"
	"odinhpc/internal/seamless/vm"
)

func TestParseHeaderBasics(t *testing.T) {
	decls, err := ParseHeader("double atan2(double y, double x); double sin(double);")
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 2 {
		t.Fatalf("decls: %d", len(decls))
	}
	if decls[0].Name != "atan2" || len(decls[0].Params) != 2 || decls[0].Ret != CDouble {
		t.Fatalf("atan2: %+v", decls[0])
	}
	if decls[1].Name != "sin" || len(decls[1].Params) != 1 {
		t.Fatalf("sin: %+v", decls[1])
	}
	if decls[0].Signature() != "double atan2(double, double)" {
		t.Fatalf("signature: %q", decls[0].Signature())
	}
}

func TestParseHeaderComments(t *testing.T) {
	src := `
/* block
   comment */
double sin(double x); // line comment
int ilogb(double x);
long lrint(double x);
float fun(float a, int b);
`
	decls, err := ParseHeader(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 4 {
		t.Fatalf("decls: %v", decls)
	}
	if decls[1].Ret != CInt || decls[2].Ret != CLong || decls[3].Ret != CFloat {
		t.Fatalf("ret types: %+v", decls)
	}
	if decls[3].Params[1] != CInt {
		t.Fatalf("param types: %+v", decls[3])
	}
}

func TestParseHeaderNoParamNames(t *testing.T) {
	decls, err := ParseHeader("double pow(double, double);")
	if err != nil {
		t.Fatal(err)
	}
	if len(decls[0].Params) != 2 {
		t.Fatalf("params: %+v", decls[0])
	}
}

func TestParseHeaderVoidParams(t *testing.T) {
	decls, err := ParseHeader("double pi(void);")
	if err != nil {
		t.Fatal(err)
	}
	if len(decls[0].Params) != 0 {
		t.Fatalf("void params: %+v", decls[0])
	}
}

func TestParseHeaderErrors(t *testing.T) {
	for name, src := range map[string]string{
		"empty":     "",
		"no-parens": "double sin;",
		"bad-type":  "char *strdup(char *);",
		"bare":      "double;",
	} {
		if _, err := ParseHeader(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCTypeStrings(t *testing.T) {
	for ct, want := range map[CType]string{CDouble: "double", CFloat: "float", CInt: "int", CLong: "long"} {
		if ct.String() != want {
			t.Errorf("%v != %s", ct, want)
		}
	}
}

// TestTwoLineLibm is the paper's §IV.C example: open libm and everything in
// the header is immediately callable with auto-discovered signatures.
func TestTwoLineLibm(t *testing.T) {
	libm, err := OpenM()
	if err != nil {
		t.Fatal(err)
	}
	got, err := libm.Call("atan2", 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Atan2(1, 2)) > 1e-15 {
		t.Fatalf("atan2 = %v", got)
	}
	// A sampling of the rest of the library.
	checks := map[string]struct {
		args []float64
		want float64
	}{
		"sin":      {[]float64{1}, math.Sin(1)},
		"sqrt":     {[]float64{2}, math.Sqrt2},
		"pow":      {[]float64{2, 10}, 1024},
		"hypot":    {[]float64{3, 4}, 5},
		"floor":    {[]float64{2.7}, 2},
		"fmod":     {[]float64{7, 3}, 1},
		"copysign": {[]float64{3, -1}, -3},
		"tgamma":   {[]float64{5}, 24},
	}
	for name, c := range checks {
		got, err := libm.Call(name, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%s = %v want %v", name, got, c.want)
		}
	}
	if len(libm.decls) < 20 {
		t.Fatalf("header only declared %d functions", len(libm.decls))
	}
}

func TestCallValidation(t *testing.T) {
	libm, _ := OpenM()
	if _, err := libm.Call("nosuchfn", 1); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := libm.Call("sin", 1, 2); err == nil {
		t.Fatal("wrong arity accepted")
	}
	// Declared but not implemented by the provider.
	lib, err := Open("m", "double nonexistent_symbol(double);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Call("nonexistent_symbol", 1); err == nil {
		t.Fatal("missing symbol accepted")
	}
}

func TestOpenUnknownLibrary(t *testing.T) {
	if _, err := Open("nota_lib", "double sin(double);"); err == nil {
		t.Fatal("unknown library accepted")
	}
}

func TestRegisterProvider(t *testing.T) {
	providers["testlib"] = Provider{
		"tripler": func(a ...float64) float64 { return 3 * a[0] },
	}
	defer delete(providers, "testlib")
	lib, err := Open("testlib", "double tripler(double x);")
	if err != nil {
		t.Fatal(err)
	}
	got, err := lib.Call("tripler", 7)
	if err != nil || got != 21 {
		t.Fatalf("tripler: %v %v", got, err)
	}
}

// TestBindAllIntoKernels wires libm into a Seamless program and calls it
// from both engines — FFI composing with the JIT, the §IV synthesis.
func TestBindAllIntoKernels(t *testing.T) {
	src := `
def angle(y, x):
    return atan2(y, x)

def dist(x1, y1, x2, y2):
    return hypot(x2 - x1, y2 - y1)
`
	for _, engine := range []string{"vm", "compiled"} {
		prog, err := seamless.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		libm, _ := OpenM()
		if n := libm.BindAll(prog); n < 20 {
			t.Fatalf("BindAll bound %d", n)
		}
		var call func(name string, args ...seamless.Value) (seamless.Value, error)
		if engine == "vm" {
			call = vm.NewEngine(prog).Call
		} else {
			call = compile.NewEngine(prog).Call
		}
		out, err := call("angle", seamless.FloatV(1), seamless.FloatV(1))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if math.Abs(out.F-math.Pi/4) > 1e-15 {
			t.Fatalf("%s: angle = %v", engine, out.F)
		}
		out, err = call("dist", seamless.FloatV(0), seamless.FloatV(0), seamless.FloatV(3), seamless.FloatV(4))
		if err != nil || out.F != 5 {
			t.Fatalf("%s: dist = %v %v", engine, out, err)
		}
	}
}
