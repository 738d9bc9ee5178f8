// Package exec mirrors the engine surface hotalloc keys on: the
// ParallelFor method, the generic package-level ParallelReduce, and their
// named-range-function forms ForRange and ReduceRange.
package exec

// Engine is the fake pool.
type Engine struct{}

// New returns an engine.
func New() *Engine { return &Engine{} }

// ParallelFor runs body over chunks of [0, n).
func (e *Engine) ParallelFor(n int, body func(lo, hi int)) { body(0, n) }

// ParallelReduce folds chunks and combines partials.
func ParallelReduce[T any](e *Engine, n int, fold func(lo, hi int) T, combine func(a, b T) T) T {
	return fold(0, n)
}

// ForRange runs a top-level range function over chunks of [0, n).
func ForRange[A any](e *Engine, n int, a A, body func(a A, lo, hi int)) { body(a, 0, n) }

// ReduceRange folds chunks with a top-level range function.
func ReduceRange[A, R any](e *Engine, n int, a A, fold func(a A, lo, hi int) R, combine func(x, y R) R) R {
	return fold(a, 0, n)
}
