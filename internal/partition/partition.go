// Package partition implements the partitioning and load-balancing layer of
// the Trilinos analog (Isorropia, paper Table I): recursive coordinate
// bisection for mesh-like point sets and greedy graph coloring, plus the
// imbalance metric. A part assignment is a distmap.NewArbitrary owner table,
// which is how ODIN consumes it for its "apportion non-uniform sections of an
// array to each node" feature (paper §III.A).
package partition

import (
	"fmt"
	"sort"

	"odinhpc/internal/sparse"
)

// RCB partitions points in d-dimensional space into p parts by recursive
// coordinate bisection: at each level the longest coordinate axis is split
// at the weighted median. p need not be a power of two.
func RCB(coords [][]float64, p int) []int {
	if p <= 0 {
		panic(fmt.Sprintf("partition: p must be positive, got %d", p))
	}
	n := len(coords)
	parts := make([]int, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var recurse func(ids []int, lo, hi int)
	recurse = func(ids []int, lo, hi int) {
		nparts := hi - lo
		if nparts <= 1 {
			for _, i := range ids {
				parts[i] = lo
			}
			return
		}
		// Pick the widest axis.
		d := len(coords[ids[0]])
		bestAxis, bestSpan := 0, -1.0
		for a := 0; a < d; a++ {
			mn, mx := coords[ids[0]][a], coords[ids[0]][a]
			for _, i := range ids {
				v := coords[i][a]
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if span := mx - mn; span > bestSpan {
				bestAxis, bestSpan = a, span
			}
		}
		sort.Slice(ids, func(a, b int) bool {
			return coords[ids[a]][bestAxis] < coords[ids[b]][bestAxis]
		})
		// Split element count proportionally to the part counts on each side.
		leftParts := nparts / 2
		cut := len(ids) * leftParts / nparts
		recurse(ids[:cut], lo, lo+leftParts)
		recurse(ids[cut:], lo+leftParts, hi)
	}
	if n > 0 {
		recurse(idx, 0, p)
	}
	return parts
}

// GreedyColoring assigns each vertex of a symmetric-pattern adjacency
// matrix the smallest color unused by its neighbors (distance-1 greedy
// coloring — the EpetraExt "coloring" feature used for Jacobian
// compression). Returns the color per vertex; colors are 0-based.
func GreedyColoring(adj *sparse.CSR) []int {
	n := adj.Rows
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	used := map[int]bool{}
	for v := 0; v < n; v++ {
		clear(used)
		cols, _ := adj.Row(v)
		for _, u := range cols {
			if u != v && colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// ValidColoring reports whether no edge connects same-colored vertices.
func ValidColoring(adj *sparse.CSR, colors []int) bool {
	for i := 0; i < adj.Rows; i++ {
		cols, _ := adj.Row(i)
		for _, j := range cols {
			if j != i && colors[i] == colors[j] {
				return false
			}
		}
	}
	return true
}

// Imbalance returns max part size over ideal size (1.0 is perfect balance).
func Imbalance(parts []int, p int) float64 {
	if len(parts) == 0 {
		return 1
	}
	counts := make([]int, p)
	for _, pt := range parts {
		if pt < 0 || pt >= p {
			panic(fmt.Sprintf("partition: part id %d out of range [0,%d)", pt, p))
		}
		counts[pt]++
	}
	mx := 0
	for _, c := range counts {
		if c > mx {
			mx = c
		}
	}
	return float64(mx) * float64(p) / float64(len(parts))
}

// GridCoords returns the (x, y) coordinates of the nodes of an nx x ny grid
// in row-major order — the inputs RCB expects for the mesh problems of the
// gallery.
func GridCoords(nx, ny int) [][]float64 {
	out := make([][]float64, nx*ny)
	for i := range out {
		out[i] = []float64{float64(i % nx), float64(i / nx)}
	}
	return out
}
