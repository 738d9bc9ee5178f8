// Package export exposes compiled Seamless kernels as ordinary Go function
// values — the inverse-direction feature of paper §IV.D, where algorithms
// written in the dynamic language are consumed from a statically typed host
// ("seamless::numpy::sum(arr)" called from C++). Each wrapper specializes
// and compiles once, then calls through a typed closure with no boxing on
// the hot path.
package export

import (
	"fmt"

	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/compile"
)

// prepare specializes and compiles name for the given argument types.
func prepare(eng *compile.Engine, prog *seamless.Program, name string, args ...seamless.Type) (*compile.Compiled, error) {
	tf, err := prog.Specialize(name, args)
	if err != nil {
		return nil, err
	}
	return eng.CompileFor(tf)
}

// Exporter builds Go-callable wrappers for one program.
type Exporter struct {
	Prog *seamless.Program
	Eng  *compile.Engine
}

// New creates an exporter (and its compile engine) for a program.
func New(prog *seamless.Program) *Exporter {
	return &Exporter{Prog: prog, Eng: compile.NewEngine(prog)}
}

// SliceToScalar exports a kernel with signature (float[:]) -> float, the
// paper's sum example.
func (e *Exporter) SliceToScalar(name string) (func([]float64) float64, error) {
	c, err := prepare(e.Eng, e.Prog, name, seamless.TArrFloat)
	if err != nil {
		return nil, err
	}
	if c.Ret != seamless.TFloat {
		return nil, fmt.Errorf("export: %s returns %v, want float", name, c.Ret)
	}
	return func(data []float64) float64 {
		out, err := e.Eng.Call(name, seamless.ArrFV(data))
		if err != nil {
			panic(err)
		}
		return out.F
	}, nil
}

// SliceToSlice exports (float[:]) -> float[:] (map-style kernels).
func (e *Exporter) SliceToSlice(name string) (func([]float64) []float64, error) {
	c, err := prepare(e.Eng, e.Prog, name, seamless.TArrFloat)
	if err != nil {
		return nil, err
	}
	if c.Ret != seamless.TArrFloat {
		return nil, fmt.Errorf("export: %s returns %v, want float array", name, c.Ret)
	}
	return func(data []float64) []float64 {
		out, err := e.Eng.Call(name, seamless.ArrFV(data))
		if err != nil {
			panic(err)
		}
		return out.AF
	}, nil
}
