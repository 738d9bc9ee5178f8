// Package ffi implements the Seamless foreign-function layer (paper §IV.C):
// given a C header, the argument and return types of every declared
// function are discovered automatically and the functions become callable —
// the paper's two-line cmath example. Since cgo is out of scope, the
// "shared libraries" are in-process providers (libm backed by Go's math
// package); the measurable claims — signature auto-discovery from headers,
// no per-function manual binding, call-through overhead — are preserved.
package ffi

import (
	"fmt"
	"math"
	"strings"

	"odinhpc/internal/seamless"
)

// CType is a C scalar type appearing in a header declaration.
type CType int

// Supported C types. All numeric C scalars map to float64 at the call
// boundary, as in ctypes' automatic conversions.
const (
	CDouble CType = iota
	CFloat
	CInt
	CLong
)

func (t CType) String() string {
	switch t {
	case CDouble:
		return "double"
	case CFloat:
		return "float"
	case CInt:
		return "int"
	case CLong:
		return "long"
	}
	return fmt.Sprintf("CType(%d)", int(t))
}

// Decl is one parsed function declaration.
type Decl struct {
	Name   string
	Ret    CType
	Params []CType
}

// Signature renders the declaration in C syntax.
func (d Decl) Signature() string {
	ps := make([]string, len(d.Params))
	for i, p := range d.Params {
		ps[i] = p.String()
	}
	return fmt.Sprintf("%s %s(%s)", d.Ret, d.Name, strings.Join(ps, ", "))
}

// ParseHeader parses C-style scalar function declarations:
//
//	double atan2(double y, double x);
//	double sin(double);   /* comments allowed */
//
// Parameter names are optional. Only scalar numeric types are supported.
func ParseHeader(src string) ([]Decl, error) {
	// Strip comments.
	src = stripComments(src)
	var out []Decl
	for _, raw := range strings.Split(src, ";") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		open := strings.IndexByte(line, '(')
		closePos := strings.LastIndexByte(line, ')')
		if open < 0 || closePos < open {
			return nil, fmt.Errorf("ffi: malformed declaration %q", line)
		}
		head := strings.Fields(line[:open])
		if len(head) < 2 {
			return nil, fmt.Errorf("ffi: malformed declaration head %q", line)
		}
		name := head[len(head)-1]
		ret, err := parseCType(strings.Join(head[:len(head)-1], " "))
		if err != nil {
			return nil, fmt.Errorf("ffi: %q: %w", line, err)
		}
		d := Decl{Name: name, Ret: ret}
		inner := strings.TrimSpace(line[open+1 : closePos])
		if inner != "" && inner != "void" {
			for _, param := range strings.Split(inner, ",") {
				fields := strings.Fields(strings.TrimSpace(param))
				if len(fields) == 0 {
					return nil, fmt.Errorf("ffi: empty parameter in %q", line)
				}
				// Drop an optional trailing parameter name.
				typeStr := strings.Join(fields, " ")
				if len(fields) > 1 && !isTypeWord(fields[len(fields)-1]) {
					typeStr = strings.Join(fields[:len(fields)-1], " ")
				}
				pt, err := parseCType(typeStr)
				if err != nil {
					return nil, fmt.Errorf("ffi: %q: %w", line, err)
				}
				d.Params = append(d.Params, pt)
			}
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ffi: header declares no functions")
	}
	return out, nil
}

func stripComments(src string) string {
	var b strings.Builder
	for {
		i := strings.Index(src, "/*")
		if i < 0 {
			break
		}
		j := strings.Index(src[i:], "*/")
		if j < 0 {
			src = src[:i]
			break
		}
		b.WriteString(src[:i])
		src = src[i+j+2:]
	}
	b.WriteString(src)
	lines := strings.Split(b.String(), "\n")
	for k, ln := range lines {
		if i := strings.Index(ln, "//"); i >= 0 {
			lines[k] = ln[:i]
		}
	}
	return strings.Join(lines, "\n")
}

func isTypeWord(w string) bool {
	switch w {
	case "double", "float", "int", "long", "unsigned", "signed", "void":
		return true
	}
	return false
}

func parseCType(s string) (CType, error) {
	switch strings.TrimSpace(s) {
	case "double":
		return CDouble, nil
	case "float":
		return CFloat, nil
	case "int", "signed int", "unsigned int", "unsigned":
		return CInt, nil
	case "long", "long int", "unsigned long":
		return CLong, nil
	}
	return CDouble, fmt.Errorf("unsupported C type %q", s)
}

// Provider supplies native implementations for a library name.
type Provider map[string]func(...float64) float64

var providers = map[string]Provider{
	"m": libm(),
}

// libm is the built-in math library backing the paper's cmath example.
func libm() Provider {
	u1 := func(f func(float64) float64) func(...float64) float64 {
		return func(a ...float64) float64 { return f(a[0]) }
	}
	u2 := func(f func(a, b float64) float64) func(...float64) float64 {
		return func(a ...float64) float64 { return f(a[0], a[1]) }
	}
	return Provider{
		"sin": u1(math.Sin), "cos": u1(math.Cos), "tan": u1(math.Tan),
		"asin": u1(math.Asin), "acos": u1(math.Acos), "atan": u1(math.Atan),
		"sinh": u1(math.Sinh), "cosh": u1(math.Cosh), "tanh": u1(math.Tanh),
		"exp": u1(math.Exp), "log": u1(math.Log), "log2": u1(math.Log2),
		"log10": u1(math.Log10), "sqrt": u1(math.Sqrt), "cbrt": u1(math.Cbrt),
		"fabs": u1(math.Abs), "floor": u1(math.Floor), "ceil": u1(math.Ceil),
		"round": u1(math.Round), "trunc": u1(math.Trunc), "erf": u1(math.Erf),
		"erfc": u1(math.Erfc), "tgamma": u1(math.Gamma),
		"atan2": u2(math.Atan2), "pow": u2(math.Pow), "fmod": u2(math.Mod),
		"hypot": u2(math.Hypot), "fmin": u2(math.Min), "fmax": u2(math.Max),
		"copysign": u2(math.Copysign),
	}
}

// Library is an opened library: parsed declarations bound to a provider.
// It is the Go analog of the paper's
//
//	class cmath(CModule): Header = "math.h"
//	libm = cmath("m")
type Library struct {
	Name  string
	decls map[string]Decl
	impls Provider
}

// Open parses the header, looks up the named provider, and binds every
// declared function that the provider implements. Declared-but-missing
// symbols fail at Call time, matching lazy dynamic linking.
func Open(name, header string) (*Library, error) {
	p, ok := providers[name]
	if !ok {
		return nil, fmt.Errorf("ffi: no library %q", name)
	}
	decls, err := ParseHeader(header)
	if err != nil {
		return nil, err
	}
	lib := &Library{Name: name, decls: map[string]Decl{}, impls: p}
	for _, d := range decls {
		lib.decls[d.Name] = d
	}
	return lib, nil
}

// MathHeader is a math.h subset sufficient for the examples and tests.
const MathHeader = `
/* math.h (subset) */
double sin(double x); double cos(double x); double tan(double x);
double asin(double x); double acos(double x); double atan(double x);
double atan2(double y, double x);
double exp(double x); double log(double x); double log10(double x);
double sqrt(double x); double cbrt(double x);
double pow(double base, double exponent);
double fabs(double x); double floor(double x); double ceil(double x);
double fmod(double x, double y); double hypot(double x, double y);
double fmin(double x, double y); double fmax(double x, double y);
double copysign(double x, double y);
double erf(double x); double tgamma(double x);
`

// OpenM opens the built-in libm with the bundled header — the full
// two-line experience of §IV.C.
func OpenM() (*Library, error) { return Open("m", MathHeader) }

// Call invokes a declared function with automatic arity checking against
// the discovered signature.
func (l *Library) Call(name string, args ...float64) (float64, error) {
	d, ok := l.decls[name]
	if !ok {
		return 0, fmt.Errorf("ffi: %s declares no function %q", l.Name, name)
	}
	if len(args) != len(d.Params) {
		return 0, fmt.Errorf("ffi: %s takes %d arguments (%s), got %d", name, len(d.Params), d.Signature(), len(args))
	}
	impl, ok := l.impls[name]
	if !ok {
		return 0, fmt.Errorf("ffi: %s has no symbol %q", l.Name, name)
	}
	return impl(args...), nil
}

// BindAll registers every declared-and-implemented function as an extern
// of the given Seamless program, making the whole library callable from
// kernels.
func (l *Library) BindAll(prog *seamless.Program) int {
	n := 0
	for name, d := range l.decls {
		impl, ok := l.impls[name]
		if !ok {
			continue
		}
		prog.Bind(name, seamless.Extern{NArgs: len(d.Params), Fn: impl})
		n++
	}
	return n
}
