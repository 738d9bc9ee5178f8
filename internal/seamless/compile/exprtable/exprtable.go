// Package exprtable holds the differential table of the array-expression
// pipeline, shared by the suites that replay it: compile's three-way
// element comparison (stack VM, compiled engine, served lowering) and
// serve's warm-against-cold plan check.
package exprtable

// Sources is every operator and array builtin, int, float and negative
// literals, and scalar variables and scalar sub-expressions on either side.
// In a kernel x and y are float arrays, a is a float and k an int; under
// /v1/expr, where every name is an array, all four are arrays.
//
// Test seam: replayed by the compile and serve differential suites.
var Sources = []string{
	"x + y", "x - y", "x * y", "x / y", "x // y", "x % y", "x ** y", "-x", "+x - -y",
	"sqrt(abs(x))", "sin(x)", "cos(y)", "exp(x)", "abs(x)", "log(abs(x))",
	"hypot(x, y)", "square(x)", "neg(x)", "square(sin(x)) + square(cos(x))",
	"2 * x", "x * 2", "2.5 + x", "x - 0.5", "-3 * x", "x / -4.0", "1e2 - x", ".5 * x",
	"7 // x", "x // 2", "x % 3", "3.5 % x", "x % -3", "x ** 2", "2 ** x", "x ** -1", "x ** 0.5",
	"hypot(x, 3)", "hypot(-4.0, y)", "sqrt(2) * x",
	"a * x + y", "x * a - y", "a - x", "x / a", "a / x", "x // a", "a // x",
	"x % a", "a % x", "x ** a", "a ** x", "hypot(x, a)", "hypot(a, y)",
	"k * x", "x + k", "x ** k", "k % x",
	"(a + 1.5) * x", "x / (k * 2 - a)", "(k // 2) * x + (k % 4) * y", "x - a * a", "-a * x", "sqrt(a * a) + x",
	"x*x + y*y", "(x - y) / (y + 3)", "exp(-x*x)", "x * y + sqrt(abs(x))",
	"hypot(x, y) - 2*x/(y + 3)", "sqrt(x*x+y*y)+exp(-x)*sin(y)",
	"log(abs(x) + 1.0) * 2.0 - (x - 1) * -3.0", "x - y - a", "x / y / 2", "2 ** x ** 0.5", "-x ** 2",
}
