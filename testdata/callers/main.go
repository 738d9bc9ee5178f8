// Command callers is the root of the module TestCallGraphVerdicts checks:
// what main refers to is reached, and package shapes has one case per
// verdict of the rule.
package main

import (
	"fmt"

	"callers/shapes"
)

func main() {
	var s shapes.Shape = shapes.Square{Side: 2}
	println(s.Area())
	shapes.Walk(shapes.Leaf{})
	g := shapes.Grid{N: 3}
	println(g.Equal(g), len(shapes.Vec{1}))
	var c shapes.Checker
	c, _ = shapes.NewForm()
	println(c.Check() == nil, g.N)
	fmt.Println(shapes.Vec{2}, g)
}
