package galeri

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/distmap"
	"odinhpc/internal/sparse"
	"odinhpc/internal/tpetra"
)

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
	a := BuildSerial(25, ConvDiff2DRow(5, 5, 10, -3))
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
	a := BuildSerial(4, TridiagRow(4, 1, 5, 2))
	if a.At(1, 0) != 1 || a.At(1, 1) != 5 || a.At(1, 2) != 2 {
		t.Fatal("tridiag content")
	}
}

// TestDistMatchesSerial verifies each distributed generator against its
// serial counterpart for several maps and rank counts.
func TestDistMatchesSerial(t *testing.T) {
	type gen struct {
		serial *sparse.CSR
		dist   func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix
	}
	gens := map[string]gen{
		"laplace1d": {Laplace1D(24), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return Laplace1DDist(c, m) }},
		"laplace2d": {Laplace2D(6, 4), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return Laplace2DDist(c, m, 6, 4) }},
		"laplace3d": {Laplace3D(2, 3, 4), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return Laplace3DDist(c, m, 2, 3, 4) }},
		"convdiff":  {BuildSerial(24, ConvDiff2DRow(6, 4, 5, 2)), func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix { return ConvDiff2DDist(c, m, 6, 4, 5, 2) }},
	}
	for name, g := range gens {
		n := g.serial.Rows
		for _, p := range []int{1, 2, 3, 4} {
			err := comm.Run(p, func(c *comm.Comm) error {
				m := distmap.NewBlock(n, c.Size())
				a := g.dist(c, m)
				got := a.GatherCSR()
				if !got.Equal(g.serial) {
					return fmt.Errorf("%s p=%d: distributed != serial", name, p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
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
// through BuildDist (InsertGlobal, then FillComplete). A row costs its
// stencil's two slices and nothing per nonzero; the triplets (a COO that
// grows by doubling), the one CSR and the column renumber are a few arrays
// each. The counts are process-wide, both ranks together, and read 2.02
// objects a row and 112 bytes a nonzero: each bound leaves 40-50% of
// margin, and a COO growing by 1.25x (192 bytes) fails.
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
	t.Logf("%d objects (%.2f a row), %d bytes (%.1f a stored nonzero)", mallocs, perRow, bytes, perNNZ)
	if perRow > 3 {
		t.Errorf("assembly allocates %.2f objects per owned row, want <= 3 (the stencil's two slices and amortized arrays)", perRow)
	}
	if perNNZ > 160 {
		t.Errorf("assembly allocates %.1f bytes per stored nonzero, want <= 160", perNNZ)
	}
}
