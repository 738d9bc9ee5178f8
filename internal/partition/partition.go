// Package partition implements the partitioning and load-balancing layer of
// the Trilinos analog (Isorropia, paper Table I): weighted 1-D chain
// partitioning, recursive coordinate bisection for mesh-like point sets, and
// greedy graph growing, plus the edge-cut and imbalance metrics used to
// compare them. A part assignment is a distmap.NewArbitrary owner table,
// which is how ODIN consumes it for its "apportion non-uniform sections of an
// array to each node" feature (paper §III.A).
package partition

import (
	"fmt"
	"sort"

	"odinhpc/internal/distmap"
	"odinhpc/internal/sparse"
)

// block1D partitions n weighted elements into p contiguous chunks with
// near-balanced weight, returning the part index per element. It uses the
// greedy prefix heuristic: cut when the running weight passes the ideal
// share.
func block1D(weights []float64, p int) []int {
	if p <= 0 {
		panic(fmt.Sprintf("partition: p must be positive, got %d", p))
	}
	n := len(weights)
	parts := make([]int, n)
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("partition: negative weight")
		}
		total += w
	}
	if total == 0 {
		// Fall back to equal-count blocks.
		m := distmap.NewBlock(n, p)
		for i := range parts {
			parts[i] = m.Owner(i)
		}
		return parts
	}
	ideal := total / float64(p)
	cur, acc := 0, 0.0
	for i, w := range weights {
		if cur < p-1 && acc+w/2 > ideal*float64(cur+1) {
			cur++
		}
		parts[i] = cur
		acc += w
	}
	return parts
}

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

// greedyGraph partitions the vertices of an undirected graph (CSR adjacency
// with symmetric pattern) into p parts by repeated BFS region growing from
// the lowest-numbered unassigned vertex.
func greedyGraph(adj *sparse.CSR, p int) []int {
	if p <= 0 {
		panic(fmt.Sprintf("partition: p must be positive, got %d", p))
	}
	n := adj.Rows
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	target := (n + p - 1) / p
	cur, size := 0, 0
	queue := make([]int, 0, n)
	assigned := 0
	for assigned < n {
		// Seed: first unassigned vertex.
		if len(queue) == 0 {
			for v := 0; v < n; v++ {
				if parts[v] == -1 {
					queue = append(queue, v)
					break
				}
			}
		}
		v := queue[0]
		queue = queue[1:]
		if parts[v] != -1 {
			continue
		}
		parts[v] = cur
		assigned++
		size++
		if size >= target && cur < p-1 {
			cur++
			size = 0
			queue = queue[:0]
			continue
		}
		cols, _ := adj.Row(v)
		for _, u := range cols {
			if u != v && parts[u] == -1 {
				queue = append(queue, u)
			}
		}
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

// edgeCut counts the edges of the (symmetric-pattern) adjacency matrix whose
// endpoints land in different parts; each undirected edge is counted once.
func edgeCut(adj *sparse.CSR, parts []int) int {
	cut := 0
	for i := 0; i < adj.Rows; i++ {
		cols, _ := adj.Row(i)
		for _, j := range cols {
			if j > i && parts[i] != parts[j] {
				cut++
			}
		}
	}
	return cut
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
