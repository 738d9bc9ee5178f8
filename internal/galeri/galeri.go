// Package galeri generates the reference matrices and maps used by the
// examples, tests, and benchmarks — the analog of the Trilinos Galeri
// package ("examples of common maps and matrices", paper Table I).
//
// Each generator has two forms: a serial CSR builder, and a distributed
// builder that assembles only locally owned rows into a tpetra.CrsMatrix
// (no rank ever touches the full matrix, as in real Galeri).
package galeri

import (
	"fmt"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/sparse"
	"odinhpc/internal/tpetra"
)

// RowFunc produces the sparse entries of one global row: parallel slices of
// global column indices and values. The stencil generators allocate each
// row's two slices once, at the stencil's width.
type RowFunc func(row int) (cols []int, vals []float64)

// BuildSerial materializes an n x n matrix from a row generator.
func BuildSerial(n int, f RowFunc) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols, vals := f(i)
		for k := range cols {
			coo.Add(i, cols[k], vals[k])
		}
	}
	return coo.ToCSR()
}

// BuildDist assembles a distributed matrix over rowMap, each rank generating
// only its own rows. Collective.
func BuildDist(c *comm.Comm, rowMap *distmap.Map, f RowFunc) *tpetra.CrsMatrix {
	a := tpetra.NewCrsMatrix(c, rowMap)
	me := c.Rank()
	for l := 0; l < rowMap.LocalCount(me); l++ {
		g := rowMap.LocalToGlobal(me, l)
		cols, vals := f(g)
		for k := range cols {
			a.InsertGlobal(g, cols[k], vals[k])
		}
	}
	a.FillComplete()
	return a
}

// Laplace1DRow is the [-1 2 -1] three-point stencil with Dirichlet ends.
func Laplace1DRow(n int) RowFunc {
	return func(i int) ([]int, []float64) {
		cols := append(make([]int, 0, 3), i)
		vals := append(make([]float64, 0, 3), 2)
		if i > 0 {
			cols = append(cols, i-1)
			vals = append(vals, -1)
		}
		if i < n-1 {
			cols = append(cols, i+1)
			vals = append(vals, -1)
		}
		return cols, vals
	}
}

// Laplace1D returns the n-point 1-D Laplacian as a serial matrix.
func Laplace1D(n int) *sparse.CSR { return BuildSerial(n, Laplace1DRow(n)) }

// Laplace1DDist returns the distributed 1-D Laplacian.
func Laplace1DDist(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix {
	return BuildDist(c, m, Laplace1DRow(m.NumGlobal()))
}

// Laplace2DRow is the standard 5-point stencil on an nx x ny grid with
// Dirichlet boundaries, rows numbered row-major (i = y*nx + x).
func Laplace2DRow(nx, ny int) RowFunc {
	return func(i int) ([]int, []float64) {
		x, y := i%nx, i/nx
		cols := append(make([]int, 0, 5), i)
		vals := append(make([]float64, 0, 5), 4)
		if x > 0 {
			cols = append(cols, i-1)
			vals = append(vals, -1)
		}
		if x < nx-1 {
			cols = append(cols, i+1)
			vals = append(vals, -1)
		}
		if y > 0 {
			cols = append(cols, i-nx)
			vals = append(vals, -1)
		}
		if y < ny-1 {
			cols = append(cols, i+nx)
			vals = append(vals, -1)
		}
		return cols, vals
	}
}

// Laplace2D returns the 5-point Laplacian on an nx x ny grid.
func Laplace2D(nx, ny int) *sparse.CSR { return BuildSerial(nx*ny, Laplace2DRow(nx, ny)) }

// Laplace2DDist returns the distributed 5-point Laplacian; the map's global
// size must equal nx*ny.
func Laplace2DDist(c *comm.Comm, m *distmap.Map, nx, ny int) *tpetra.CrsMatrix {
	if m.NumGlobal() != nx*ny {
		panic(fmt.Sprintf("galeri: map size %d != %d x %d", m.NumGlobal(), nx, ny))
	}
	return BuildDist(c, m, Laplace2DRow(nx, ny))
}

// Laplace3DRow is the 7-point stencil on an nx x ny x nz grid.
func Laplace3DRow(nx, ny, nz int) RowFunc {
	return func(i int) ([]int, []float64) {
		x := i % nx
		y := (i / nx) % ny
		z := i / (nx * ny)
		cols := append(make([]int, 0, 7), i)
		vals := append(make([]float64, 0, 7), 6)
		if x > 0 {
			cols = append(cols, i-1)
			vals = append(vals, -1)
		}
		if x < nx-1 {
			cols = append(cols, i+1)
			vals = append(vals, -1)
		}
		if y > 0 {
			cols = append(cols, i-nx)
			vals = append(vals, -1)
		}
		if y < ny-1 {
			cols = append(cols, i+nx)
			vals = append(vals, -1)
		}
		if z > 0 {
			cols = append(cols, i-nx*ny)
			vals = append(vals, -1)
		}
		if z < nz-1 {
			cols = append(cols, i+nx*ny)
			vals = append(vals, -1)
		}
		return cols, vals
	}
}

// Laplace3D returns the 7-point Laplacian on an nx x ny x nz grid.
func Laplace3D(nx, ny, nz int) *sparse.CSR {
	return BuildSerial(nx*ny*nz, Laplace3DRow(nx, ny, nz))
}

// Laplace3DDist returns the distributed 7-point Laplacian.
func Laplace3DDist(c *comm.Comm, m *distmap.Map, nx, ny, nz int) *tpetra.CrsMatrix {
	if m.NumGlobal() != nx*ny*nz {
		panic(fmt.Sprintf("galeri: map size %d != %d x %d x %d", m.NumGlobal(), nx, ny, nz))
	}
	return BuildDist(c, m, Laplace3DRow(nx, ny, nz))
}

// ConvDiff2DRow is an upwinded convection-diffusion 5-point stencil with
// convection velocity (px, py) on an nx x ny grid (h = 1/(nx+1)). The
// resulting matrix is non-symmetric, exercising GMRES/BiCGSTAB paths.
func ConvDiff2DRow(nx, ny int, px, py float64) RowFunc {
	h := 1.0 / float64(nx+1)
	return func(i int) ([]int, []float64) {
		x, y := i%nx, i/nx
		// Diffusion part.
		diag := 4.0
		w, e, s, n := -1.0, -1.0, -1.0, -1.0
		// First-order upwind convection.
		if px >= 0 {
			diag += px * h
			w -= px * h
		} else {
			diag -= px * h
			e += px * h
		}
		if py >= 0 {
			diag += py * h
			s -= py * h
		} else {
			diag -= py * h
			n += py * h
		}
		cols := append(make([]int, 0, 5), i)
		vals := append(make([]float64, 0, 5), diag)
		if x > 0 {
			cols = append(cols, i-1)
			vals = append(vals, w)
		}
		if x < nx-1 {
			cols = append(cols, i+1)
			vals = append(vals, e)
		}
		if y > 0 {
			cols = append(cols, i-nx)
			vals = append(vals, s)
		}
		if y < ny-1 {
			cols = append(cols, i+nx)
			vals = append(vals, n)
		}
		return cols, vals
	}
}

// ConvDiff2DDist returns the distributed convection-diffusion matrix.
func ConvDiff2DDist(c *comm.Comm, m *distmap.Map, nx, ny int, px, py float64) *tpetra.CrsMatrix {
	if m.NumGlobal() != nx*ny {
		panic(fmt.Sprintf("galeri: map size %d != %d x %d", m.NumGlobal(), nx, ny))
	}
	return BuildDist(c, m, ConvDiff2DRow(nx, ny, px, py))
}

// TridiagRow is a general tridiagonal stencil [lo, diag, hi].
func TridiagRow(n int, lo, diag, hi float64) RowFunc {
	return func(i int) ([]int, []float64) {
		cols := append(make([]int, 0, 3), i)
		vals := append(make([]float64, 0, 3), diag)
		if i > 0 {
			cols = append(cols, i-1)
			vals = append(vals, lo)
		}
		if i < n-1 {
			cols = append(cols, i+1)
			vals = append(vals, hi)
		}
		return cols, vals
	}
}
