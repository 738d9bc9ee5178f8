package experiments

// The Seamless experiments: interpreter vs compiled vs native (E6, E-A3) and
// FFI overhead (E7). A case times its paths as regions of one run, so the
// ratios are metrics of its row.

import (
	"fmt"
	"math"

	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/compile"
	"odinhpc/internal/seamless/ffi"
	"odinhpc/internal/seamless/vm"
)

// jitCorpus is the one kernel source every engine runs (atan2 is an extern:
// E7 binds it, the other kernels never call it).
const jitCorpus = `
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

def saxpy(alpha, x, y):
    for i in range(len(x)):
        y[i] = alpha * x[i] + y[i]
    return 0

def mandel(cr, ci, maxiter):
    zr = 0.0
    zi = 0.0
    n = 0
    while n < maxiter and zr * zr + zi * zi <= 4.0:
        t = zr * zr - zi * zi + cr
        zi = 2.0 * zr * zi + ci
        zr = t
        n += 1
    return n

def spin(n):
    acc = 0
    for i in range(n):
        acc += i % 7
    return acc

def loop_atan2(n):
    acc = 0.0
    for i in range(n):
        acc += atan2(1.0, float(i + 1))
    return acc
`

// sink keeps the native loops' results live.
var sink float64

// program compiles jitCorpus; each engine needs a program of its own.
func program() *seamless.Program {
	p, err := seamless.CompileSource(jitCorpus)
	if err != nil {
		panic(err) // the corpus is a constant
	}
	return p
}

// jitKernel is one kernel of jitCorpus: its arguments over two 10^6-element
// arrays, and the same loop hand-written in Go (nil: no native comparison).
type jitKernel struct {
	name   string
	args   func(xs, ys []float64) []seamless.Value
	native func(xs, ys []float64) float64
}

// jitCase times the kernel on the bytecode interpreter (CPython's stand-in),
// the compiled engine (the JIT's) and natively, once both engines agree.
func jitCase(k jitKernel) Case {
	return Case{k.name, func(m *Meter) error {
		ev, ec := vm.NewEngine(program()), compile.NewEngine(program())
		xs, ys := make([]float64, 1_000_000), make([]float64, 1_000_000)
		for i := range xs {
			xs[i], ys[i] = float64(i%1000), float64(i%777)
		}
		args := k.args(xs, ys)
		got, err := ev.Call(k.name, args...)
		if err != nil {
			return err
		}
		if same, err := ec.Call(k.name, args...); err != nil || got.String() != same.String() {
			return fmt.Errorf("interpreter returns %v, compiled engine %v (%v)", got, same, err)
		}
		interp, err := m.Loop(nil, func() error { _, err := ev.Call(k.name, args...); return err })
		if err != nil {
			return err
		}
		compiled, err := m.Loop(nil, func() error { _, err := ec.Call(k.name, args...); return err })
		m.Report("interpMs", ms(interp))
		m.Report("compiledMs", ms(compiled))
		m.Report("speedup", float64(interp)/float64(compiled))
		if k.native != nil && err == nil {
			d, _ := m.Loop(nil, func() error { sink = k.native(xs, ys); return nil })
			m.Report("nativeMs", ms(d))
			m.Report("compiled/native", float64(compiled)/float64(d))
		}
		return err
	}}
}

var e6 = Experiment{
	ID: "E6", Anchor: `§IV.A: the JIT makes "node-level Python as fast as compiled languages"`,
	Cases: func() []Case {
		return []Case{
			jitCase(jitKernel{"sum", func(xs, _ []float64) []seamless.Value { return []seamless.Value{seamless.ArrFV(xs)} },
				func(xs, _ []float64) (acc float64) {
					for _, v := range xs {
						acc += v
					}
					return acc
				}}),
			jitCase(jitKernel{"dot", func(xs, ys []float64) []seamless.Value {
				return []seamless.Value{seamless.ArrFV(xs), seamless.ArrFV(ys)}
			}, func(xs, ys []float64) (acc float64) {
				for i := range xs {
					acc += xs[i] * ys[i]
				}
				return acc
			}}),
			jitCase(jitKernel{"saxpy", func(xs, ys []float64) []seamless.Value {
				return []seamless.Value{seamless.FloatV(2.5), seamless.ArrFV(xs), seamless.ArrFV(ys)}
			}, func(xs, ys []float64) float64 {
				for i := range xs {
					ys[i] = 2.5*xs[i] + ys[i]
				}
				return 0
			}}),
			jitCase(jitKernel{"mandel", func(_, _ []float64) []seamless.Value {
				return []seamless.Value{seamless.FloatV(-0.7436), seamless.FloatV(0.1318), seamless.IntV(3000)}
			}, func(_, _ []float64) float64 {
				zr, zi := 0.0, 0.0
				for k := 0; k < 3000 && zr*zr+zi*zi <= 4; k++ {
					zr, zi = zr*zr-zi*zi-0.7436, 2*zr*zi+0.1318
				}
				return zr
			}}),
			// Ablation E-A3: a scalar loop, so no array traffic can hide dispatch.
			jitCase(jitKernel{name: "spin", args: func(_, _ []float64) []seamless.Value {
				return []seamless.Value{seamless.IntV(10_000)}
			}}),
		}
	},
	// The measured factor is 6-21x, so 2x is a bound a noisy host does not cross.
	Check: each(func(r Row) error {
		return want(r.Get("speedup") >= 2, "compiled engine is %.2fx the interpreter, want >= 2x", r.Get("speedup"))
	}),
}

// e7 measures three atan2 call paths: native Go, Library.Call through the
// parsed header signature, and an extern call inside a compiled kernel.
var e7 = Experiment{
	ID: "E7", Anchor: `§IV.C: FFI, "all of the math library is available"`,
	Cases: func() []Case {
		return []Case{{"atan2", func(m *Meter) error {
			libm, err := ffi.OpenM()
			if err != nil {
				return err
			}
			prog := program()
			libm.BindAll(prog)
			ec := compile.NewEngine(prog)
			if v, err := libm.Call("atan2", 1.0, 2.0); err != nil || v != math.Atan2(1, 2) {
				return fmt.Errorf("libm atan2(1,2) = %v, %v; want %v", v, err, math.Atan2(1, 2))
			}
			const calls = 100_000
			paths := []struct {
				metric string
				run    func() (float64, error)
			}{
				{"nativeNs/call", func() (acc float64, _ error) {
					for i := 0; i < calls; i++ {
						acc += math.Atan2(1.0, float64(i+1))
					}
					return acc, nil
				}},
				{"libraryNs/call", func() (acc float64, _ error) {
					for i := 0; i < calls; i++ {
						v, err := libm.Call("atan2", 1.0, float64(i+1))
						if err != nil {
							return 0, err
						}
						acc += v
					}
					return acc, nil
				}},
				{"kernelNs/call", func() (float64, error) {
					v, err := ec.Call("loop_atan2", seamless.IntV(calls))
					return v.AsFloat(), err
				}},
			}
			for _, p := range paths {
				d, err := m.Loop(nil, func() (err error) { sink, err = p.run(); return err })
				if err != nil {
					return err
				}
				m.Report(p.metric, float64(d)/calls)
			}
			return nil
		}}}
	},
}
