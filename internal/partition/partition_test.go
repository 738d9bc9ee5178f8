package partition

import (
	"slices"
	"testing"

	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/sparse"
)

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

func TestRCBGridQuality(t *testing.T) {
	// On a 16x16 grid into 4 parts, RCB should produce quadrant-like cuts
	// with far lower edge cut than a cyclic assignment.
	nx, ny := 16, 16
	coords := GridCoords(nx, ny)
	adj := galeri.Laplace2D(nx, ny)
	parts := RCB(coords, 4)
	if imb := Imbalance(parts, 4); imb > 1.05 {
		t.Fatalf("RCB imbalance %g", imb)
	}
	rcbCut := edgeCut(adj, parts)
	cyclic := make([]int, nx*ny)
	for i := range cyclic {
		cyclic[i] = i % 4
	}
	cyclicCut := edgeCut(adj, cyclic)
	if rcbCut*5 > cyclicCut {
		t.Fatalf("RCB cut %d not much better than cyclic %d", rcbCut, cyclicCut)
	}
	// The ideal 4-quadrant cut is 2*16 = 32.
	if rcbCut > 48 {
		t.Fatalf("RCB cut %d too high (ideal 32)", rcbCut)
	}
}

func TestRCBNonPowerOfTwo(t *testing.T) {
	coords := GridCoords(9, 9)
	parts := RCB(coords, 3)
	if imb := Imbalance(parts, 3); imb > 1.12 {
		t.Fatalf("imbalance %g", imb)
	}
	seen := map[int]bool{}
	for _, p := range parts {
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Fatalf("parts used: %v", seen)
	}
}

func TestRCBEmptyAndSingle(t *testing.T) {
	if got := RCB(nil, 3); len(got) != 0 {
		t.Fatal("empty input")
	}
	got := RCB([][]float64{{1, 2}}, 2)
	if len(got) != 1 {
		t.Fatal("single point")
	}
}

func TestEdgeCutCountsOnce(t *testing.T) {
	adj := galeri.Laplace1D(4) // path 0-1-2-3
	parts := []int{0, 0, 1, 1}
	if got := edgeCut(adj, parts); got != 1 {
		t.Fatalf("cut=%d want 1", got)
	}
	if got := edgeCut(adj, []int{0, 1, 0, 1}); got != 3 {
		t.Fatalf("cut=%d want 3", got)
	}
}

func TestImbalanceMetric(t *testing.T) {
	if got := Imbalance([]int{0, 0, 1, 1}, 2); got != 1.0 {
		t.Fatalf("balanced: %g", got)
	}
	if got := Imbalance([]int{0, 0, 0, 1}, 2); got != 1.5 {
		t.Fatalf("3-1 split: %g", got)
	}
	if got := Imbalance(nil, 3); got != 1.0 {
		t.Fatalf("empty: %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad part id should panic")
		}
	}()
	Imbalance([]int{5}, 2)
}

func TestToMapRoundTrip(t *testing.T) {
	parts := []int{0, 1, 0, 2, 1}
	m := distmap.NewArbitrary(parts, 3)
	for g, p := range parts {
		if m.Owner(g) != p {
			t.Fatalf("Owner(%d)=%d want %d", g, m.Owner(g), p)
		}
	}
}

func TestGridCoords(t *testing.T) {
	c := GridCoords(3, 2)
	if len(c) != 6 {
		t.Fatal("count")
	}
	if c[4][0] != 1 || c[4][1] != 1 {
		t.Fatalf("coords[4]=%v", c[4])
	}
}

func TestGreedyColoring(t *testing.T) {
	// 2-D grid graphs are bipartite-ish for the 5-point stencil: the greedy
	// coloring must be valid and small.
	adj := galeri.Laplace2D(8, 8)
	colors := GreedyColoring(adj)
	if !ValidColoring(adj, colors) {
		t.Fatal("invalid coloring")
	}
	if nc := slices.Max(colors) + 1; nc < 2 || nc > 3 {
		t.Fatalf("grid colored with %d colors", nc)
	}
	// A path graph needs exactly 2.
	path := galeri.Laplace1D(10)
	pc := GreedyColoring(path)
	if !ValidColoring(path, pc) || slices.Max(pc) != 1 {
		t.Fatalf("path coloring: %v", pc)
	}
	// Empty graph.
	if len(GreedyColoring(galeri.Laplace1D(0))) != 0 {
		t.Fatal("empty graph")
	}
	// Invalid colorings are detected.
	bad := make([]int, 10)
	if ValidColoring(path, bad) {
		t.Fatal("all-same coloring accepted")
	}
}
