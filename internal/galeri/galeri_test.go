package galeri

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/distmap"
	"odinhpc/internal/sparse"
	"odinhpc/internal/tpetra"
)

// convDiff2DRow and tridiagRow are the RowFunc forms of the two stencils
// that only a Dist builder serves.
func convDiff2DRow(nx, ny int, px, py float64) RowFunc { return convDiff2D(nx, ny, px, py).rowFunc(5) }

func tridiagRow(n int, lo, diag, hi float64) RowFunc { return tridiag(n, lo, diag, hi).rowFunc(3) }

func TestLaplace1DStructure(t *testing.T) {
	a := Laplace1D(5)
	if a.NNZ() != 13 {
		t.Fatalf("nnz=%d", a.NNZ())
	}
	if a.At(0, 0) != 2 || a.At(2, 1) != -1 || a.At(2, 3) != -1 || a.At(0, 2) != 0 {
		t.Fatal("stencil content wrong")
	}
	// Symmetry.
	if !a.Transpose().Equal(a) {
		t.Fatal("not symmetric")
	}
}

func TestLaplace2DStructure(t *testing.T) {
	nx, ny := 4, 3
	a := Laplace2D(nx, ny)
	if a.Rows != 12 {
		t.Fatalf("rows=%d", a.Rows)
	}
	// Interior point (1,1) -> i=5: full 5-point stencil.
	if a.At(5, 5) != 4 || a.At(5, 4) != -1 || a.At(5, 6) != -1 || a.At(5, 1) != -1 || a.At(5, 9) != -1 {
		t.Fatal("interior stencil wrong")
	}
	// Corner point 0 has only 3 entries.
	if a.RowNNZ(0) != 3 {
		t.Fatalf("corner row nnz=%d", a.RowNNZ(0))
	}
	if !a.Transpose().Equal(a) {
		t.Fatal("not symmetric")
	}
	// Row sums are zero in the interior, positive on the boundary
	// (diagonal dominance).
	d := a.Dense()
	for i := 0; i < 12; i++ {
		var s float64
		for j := 0; j < 12; j++ {
			s += d[i*12+j]
		}
		if s < 0 {
			t.Fatalf("row %d sum %g < 0", i, s)
		}
	}
}

func TestLaplace3DStructure(t *testing.T) {
	a := Laplace3D(3, 3, 3)
	if a.Rows != 27 {
		t.Fatalf("rows=%d", a.Rows)
	}
	// Center point i=13 has the full 7-point stencil.
	if a.At(13, 13) != 6 || a.RowNNZ(13) != 7 {
		t.Fatal("center stencil wrong")
	}
	if !a.Transpose().Equal(a) {
		t.Fatal("not symmetric")
	}
}

func TestConvDiffNonSymmetric(t *testing.T) {
	a := buildSerial(25, convDiff2D(5, 5, 10, -3))
	if a.Transpose().Equal(a) {
		t.Fatal("convection-diffusion must be non-symmetric")
	}
	// Diagonal dominance is preserved by upwinding.
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var off float64
		var diag float64
		for k, j := range cols {
			if j == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag < off-1e-12 {
			t.Fatalf("row %d not diagonally dominant: %g vs %g", i, diag, off)
		}
	}
}

func TestTridiag(t *testing.T) {
	a := buildSerial(4, tridiag(4, 1, 5, 2))
	if a.At(1, 0) != 1 || a.At(1, 1) != 5 || a.At(1, 2) != 2 {
		t.Fatal("tridiag content")
	}
}

// TestDistMatchesSerial holds each distributed builder to its serial
// counterpart (and BuildDist, fed the exported RowFunc, to the serial stencil
// it wraps), over block and cyclic maps at P = 1-4: the gathered CSR's bits, and Apply's bits against
// the serial rows summed in Apply's order (the rank's own columns, then its
// ghosts, each ascending).
func TestDistMatchesSerial(t *testing.T) {
	type gen struct {
		serial *sparse.CSR
		dist   func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix
	}
	gens := map[string]gen{
		"laplace1d": {Laplace1D(24), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return Laplace1DDist(c, m) }},
		"laplace2d": {Laplace2D(6, 4), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return Laplace2DDist(c, m, 6, 4) }},
		"laplace3d": {Laplace3D(2, 3, 4), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return Laplace3DDist(c, m, 2, 3, 4) }},
		"convdiff":  {buildSerial(24, convDiff2D(6, 4, 5, -2)), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return ConvDiff2DDist(c, m, 6, 4, 5, -2) }},
		"tridiag":   {buildSerial(24, tridiag(24, 0.3, -1.7, 2.9)), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return TridiagDist(c, m, 0.3, -1.7, 2.9) }},
		"builddist": {buildSerial(24, convDiff2D(6, 4, -1, 3)), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix {
			return BuildDist(c, m, convDiff2DRow(6, 4, -1, 3))
		}},
	}
	maps := map[string]func(n, p int) *distmap.Map{"block": distmap.NewBlock, "cyclic": distmap.NewCyclic}
	for name, g := range gens {
		n := g.serial.Rows
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(3*i + 1))
		}
		for mapName, newMap := range maps {
			for _, p := range []int{1, 2, 3, 4} {
				err := comm.Run(p, func(c *comm.Comm) error {
					m := newMap(n, c.Size())
					a := g.dist(c, m)
					if got := a.GatherCSR(); !sameBits(got, g.serial) {
						return fmt.Errorf("%s %s p=%d: distributed CSR != serial, bit for bit", name, mapName, p)
					}
					xv, y := tpetra.NewVector(c, m), tpetra.NewVector(c, m)
					for l := range xv.Data {
						xv.Data[l] = x[m.LocalToGlobal(c.Rank(), l)]
					}
					a.Apply(xv, y)
					for l, v := range y.Data {
						row := m.LocalToGlobal(c.Rank(), l)
						cols, vals := g.serial.Row(row)
						var want float64
						for _, own := range []bool{true, false} {
							for k, j := range cols {
								if (m.Owner(j) == c.Rank()) == own {
									want += vals[k] * x[j]
								}
							}
						}
						if math.Float64bits(v) != math.Float64bits(want) {
							return fmt.Errorf("%s %s p=%d: Apply row %d = %v, want %v", name, mapName, p, row, v, want)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// sameBits reports whether two CSR matrices have the same shape, structure
// and value bits.
func sameBits(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		return false
	}
	return slices.EqualFunc(a.Val, b.Val, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// TestRowFuncsAreFresh: each call of an exported RowFunc returns slices of
// its own, so a caller may keep rows and generate them concurrently.
func TestRowFuncsAreFresh(t *testing.T) {
	for name, f := range map[string]RowFunc{
		"laplace1d": Laplace1DRow(10), "laplace3d": Laplace3DRow(3, 3, 3),
		"convdiff": convDiff2DRow(4, 3, 1, 1), "tridiag": tridiagRow(10, 1, 2, 3),
	} {
		c0, v0 := f(5)
		keep := slices.Clone(c0)
		c1, v1 := f(5)
		c1[0], v1[0] = -1, -1
		if &c0[0] == &c1[0] || &v0[0] == &v1[0] || !slices.Equal(c0, keep) {
			t.Errorf("%s: two calls share their slices", name)
		}
	}
}

func TestDistMapSizeValidation(t *testing.T) {
	err := comm.Run(1, func(c *comm.Comm) error {
		m := distmap.NewBlock(10, 1)
		defer func() { recover() }()
		Laplace2DDist(c, m, 3, 3)
		return fmt.Errorf("expected panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAssemblyAllocs pins what a cold assembly allocates: the 32^3 7-point
// Laplacian over a block map at P = 2, the set-up of a served 32^3 solve,
// through the one builder loop (InsertGlobal, then FillComplete). A row
// costs nothing: the stencil writes it into one reused buffer, the triplets
// are reserved once at their counted size, and ToCSR takes them over. What
// is left is a few dozen arrays a rank: the triplets, the row pointers, the
// column renumber, the SELL streams and the gather plan. The counts are
// process-wide, both ranks together, and read 0.006 objects a row and 34.8
// bytes a nonzero (2.02 and 112 when each row allocated its two slices and
// the triplets grew by doubling); triplets alone are 24 bytes a nonzero.
func TestAssemblyAllocs(t *testing.T) {
	const nx = 32
	mallocs, bytes := alloctest.Usage(t, 2, 1, func(c *comm.Comm) func() {
		m := distmap.NewBlock(nx*nx*nx, c.Size())
		return func() { Laplace3DDist(c, m, nx, nx, nx) }
	})
	rows := nx * nx * nx
	stored := 7*rows - 6*nx*nx // boundary rows lack one neighbour per face
	perRow := float64(mallocs) / float64(rows)
	perNNZ := float64(bytes) / float64(stored)
	t.Logf("%d objects (%.3f a row), %d bytes (%.1f a stored nonzero)", mallocs, perRow, bytes, perNNZ)
	if perRow > 0.01 {
		t.Errorf("assembly allocates %.3f objects per owned row, want <= 0.01 (nothing per row)", perRow)
	}
	if perNNZ > 40 {
		t.Errorf("assembly allocates %.1f bytes per stored nonzero, want <= 40", perNNZ)
	}
}

// TestSerialAssemblyAllocs pins what a serial build allocates: Laplace3D(32,
// 32, 32) through the counted, reserved loop (rowsTwice) is 16 objects, the
// COO and its three triplet arrays reserved once, the row buffer's few
// growths, the row pointers and the CSR (65 584 when each row allocated its
// two slices and the triplets grew by doubling). The matrix must match, bit
// for bit, the one built row by row through the exported RowFunc.
func TestSerialAssemblyAllocs(t *testing.T) {
	const nx = 32
	allocs := testing.AllocsPerRun(2, func() { Laplace3D(nx, nx, nx) })
	t.Logf("Laplace3D(%d, %d, %d): %.0f objects", nx, nx, nx, allocs)
	if allocs > 16 {
		t.Errorf("Laplace3D(%d, %d, %d) allocates %.0f objects, want <= 16", nx, nx, nx, allocs)
	}
	n, f := nx*nx*nx, Laplace3DRow(nx, nx, nx)
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols, vals := f(i)
		for k := range cols {
			coo.Add(i, cols[k], vals[k])
		}
	}
	if !sameBits(Laplace3D(nx, nx, nx), coo.ToCSR()) {
		t.Error("Laplace3D differs from its RowFunc built row by row")
	}
}
