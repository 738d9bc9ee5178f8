package export

import (
	"math"
	"testing"

	"odinhpc/internal/seamless"
)

const src = `
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res += it[i]
    return res

def dot(a, b):
    acc = 0.0
    for i in range(len(a)):
        acc += a[i] * b[i]
    return acc

def sigmoid(x):
    return 1.0 / (1.0 + exp(-x))

def lerp(a, b):
    return a + 0.5 * (b - a)

def normalize(xs):
    n = 0.0
    for i in range(len(xs)):
        n += xs[i] * xs[i]
    n = sqrt(n)
    out = zeros(len(xs))
    for i in range(len(xs)):
        out[i] = xs[i] / n
    return out

def fact(n) -> int:
    if n <= 1:
        return 1
    return n * fact(n - 1)
`

func exporter(t *testing.T) *Exporter {
	t.Helper()
	prog, err := seamless.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return New(prog)
}

// TestSeamlessNumpySum is the paper's §IV.D example: a kernel defined in
// the dynamic language used from the host language as a plain function.
func TestSeamlessNumpySum(t *testing.T) {
	e := exporter(t)
	sum, err := e.SliceToScalar("sum")
	if err != nil {
		t.Fatal(err)
	}
	// "int arr[100]" analog: any Go slice goes straight in.
	arr := make([]float64, 100)
	for i := range arr {
		arr[i] = float64(i)
	}
	if got := sum(arr); got != 4950 {
		t.Fatalf("sum = %v", got)
	}
	// And reuse on a different input with no recompilation.
	if got := sum([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("sum = %v", got)
	}
}

func TestAllWrapperShapes(t *testing.T) {
	e := exporter(t)
	sum, err := e.SliceToScalar("sum")
	if err != nil {
		t.Fatal(err)
	}
	if got := sum([]float64{3, 4}); got != 7 {
		t.Fatalf("sum = %v", got)
	}
	norm, err := e.SliceToSlice("normalize")
	if err != nil {
		t.Fatal(err)
	}
	out := norm([]float64{3, 4})
	if math.Abs(out[0]-0.6) > 1e-15 || math.Abs(out[1]-0.8) > 1e-15 {
		t.Fatalf("normalize = %v", out)
	}
}

func TestWrapperTypeChecks(t *testing.T) {
	e := exporter(t)
	if _, err := e.SliceToScalar("normalize"); err == nil {
		t.Fatal("wrong return shape accepted")
	}
	if _, err := e.SliceToScalar("nosuch"); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := e.SliceToScalar("dot"); err == nil {
		t.Fatal("two-argument fn as SliceToScalar accepted")
	}
}

func TestWrapperErrorShapes(t *testing.T) {
	e := exporter(t)
	// Each wrapper rejects unknown names, mismatched return kinds and
	// mismatched arities.
	if _, err := e.SliceToSlice("nosuch"); err == nil {
		t.Fatal("SliceToSlice unknown accepted")
	}
	if _, err := e.SliceToSlice("sum"); err == nil {
		t.Fatal("SliceToSlice scalar fn accepted")
	}
	if _, err := e.SliceToSlice("dot"); err == nil {
		t.Fatal("SliceToSlice wrong arity accepted")
	}
}

func TestWrapperReuseIsCached(t *testing.T) {
	prog, err := seamless.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog)
	f1, err := e.SliceToScalar("sum")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := e.SliceToScalar("sum")
	if err != nil {
		t.Fatal(err)
	}
	// Both wrappers resolve to the same cached specialization and the same
	// compiled closure set.
	c1, err1 := prepare(e.Eng, e.Prog, "sum", seamless.TArrFloat)
	c2, err2 := prepare(e.Eng, e.Prog, "sum", seamless.TArrFloat)
	if err1 != nil || err2 != nil || c1 != c2 {
		t.Fatalf("sum(float[:]) compiled twice: %p %p (%v %v)", c1, c2, err1, err2)
	}
	if x := []float64{1, 2}; f1(x) != f2(x) {
		t.Fatal("wrappers disagree")
	}
}

func TestExportedFaultPanics(t *testing.T) {
	prog, err := seamless.CompileSource("def bad(xs):\n    return xs[99]\n")
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog)
	f, err := e.SliceToScalar("bad")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f([]float64{1})
}
