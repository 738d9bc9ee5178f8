// Package shapes holds one case per verdict of the caller rule.
package shapes

// Shape is what main calls Area through.
type Shape interface{ Area() float64 }

// Square is reached from main.
type Square struct{ Side float64 }

// Area is live: main calls it only through Shape.
func (q Square) Area() float64 { return q.Side * q.Side }

// Node is a sealed interface: only this package's types implement it.
type Node interface{ node() }

// Leaf is reached from main.
type Leaf struct{}

// node is live, though nothing calls it: it seals Node.
func (Leaf) node() {}

// Walk is live: main calls it.
func Walk(n Node) { _ = n }

// Grid is reached from main.
type Grid struct{ N int }

// Equal is live: main calls it.
func (g Grid) Equal(h Grid) bool { return g.N == h.N }

// Vec is reached from main.
type Vec []float64

// Equal is dead: it shares only its name with Grid.Equal.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Energy is dead, and so is sumSquares, whose only caller it is.
func (v Vec) Energy() float64 { return sumSquares(v) }

func sumSquares(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Checker is what main checks a Form through.
type Checker interface{ Check() error }

// Form is reached from main.
type Form struct{}

// NewForm returns a Form, which main assigns to a Checker.
func NewForm() (Form, error) { return Form{}, nil }

// Check is live: main converts a Form to Checker.
func (Form) Check() error { return nil }

// Check is dead: Grid implements Checker, but a Grid only ever becomes an
// any, which nothing asserts to Checker.
func (g Grid) Check() error { return nil }

// String is live: main hands a Vec to fmt, which asserts fmt.Stringer.
func (v Vec) String() string { return "vec" }

// Debug is dead: only a test would read it.
var Debug = false
