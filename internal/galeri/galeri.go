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
// global column indices, in ascending order, and values, fresh on every call,
// so the caller may keep them and call it concurrently.
type RowFunc func(row int) (cols []int, vals []float64)

// stencil appends the entries of global row i to cols and vals, in ascending
// column order so that assembly finds every row sorted, and returns them. The builders hand every row the same buffer, so generating a row
// allocates nothing.
type stencil func(i int, cols []int, vals []float64) ([]int, []float64)

// rowFunc wraps s as a RowFunc that hands it fresh slices of width entries.
func (s stencil) rowFunc(width int) RowFunc {
	return func(i int) ([]int, []float64) {
		return s(i, make([]int, 0, width), make([]float64, 0, width))
	}
}

// stencil adapts f to the builders' loop, copying its row into the buffer.
func (f RowFunc) stencil() stencil {
	return func(i int, cols []int, vals []float64) ([]int, []float64) {
		c, v := f(i)
		return append(cols, c...), append(vals, v...)
	}
}

// buildSerial materializes an n x n matrix from a stencil, through the
// builders' one assembly loop (rowsTwice).
func buildSerial(n int, s stencil) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	rowsTwice(n, func(i int) int { return i }, s, coo.Reserve, func(i int, cols []int, vals []float64) {
		for k := range cols {
			coo.Add(i, cols[k], vals[k])
		}
	})
	return coo.ToCSR()
}

// BuildDist assembles a distributed matrix over rowMap, each rank generating
// only its own rows, each twice (rowsTwice). Collective.
func BuildDist(c *comm.Comm, rowMap *distmap.Map, f RowFunc) *tpetra.CrsMatrix {
	return buildDist(c, rowMap, f.stencil())
}

// buildDist assembles the rank's rows of rowMap into a distributed matrix.
// Collective.
func buildDist(c *comm.Comm, rowMap *distmap.Map, s stencil) *tpetra.CrsMatrix {
	a := tpetra.NewCrsMatrix(c, rowMap)
	me := c.Rank()
	global := func(l int) int { return rowMap.LocalToGlobal(me, l) }
	rowsTwice(rowMap.LocalCount(me), global, s, a.Reserve, func(g int, cols []int, vals []float64) {
		for k := range cols {
			a.InsertGlobal(g, cols[k], vals[k])
		}
	})
	a.FillComplete()
	return a
}

// rowsTwice is the one assembly loop of the builders: it walks rows
// global(0), ..., global(n-1) twice over one row buffer, first only to count
// their entries, which it passes to reserve so that the triplet arrays are
// sized once and exactly and never regrow, then handing each row to add.
func rowsTwice(n int, global func(l int) int, s stencil, reserve func(int), add func(g int, cols []int, vals []float64)) {
	var cols []int
	var vals []float64
	count := 0
	for l := 0; l < n; l++ {
		cols, vals = s(global(l), cols[:0], vals[:0])
		count += len(cols)
	}
	reserve(count)
	for l := 0; l < n; l++ {
		g := global(l)
		cols, vals = s(g, cols[:0], vals[:0])
		add(g, cols, vals)
	}
}

// Laplace1DRow is the [-1 2 -1] three-point stencil with Dirichlet ends.
func Laplace1DRow(n int) RowFunc { return tridiag(n, -1, 2, -1).rowFunc(3) }

// Laplace1D returns the n-point 1-D Laplacian as a serial matrix.
func Laplace1D(n int) *sparse.CSR { return buildSerial(n, tridiag(n, -1, 2, -1)) }

// Laplace1DDist returns the distributed 1-D Laplacian.
func Laplace1DDist(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix {
	return buildDist(c, m, tridiag(m.NumGlobal(), -1, 2, -1))
}

// Laplace2D returns the standard 5-point Laplacian on an nx x ny grid with
// Dirichlet boundaries, rows numbered row-major (i = y*nx + x): the
// convection-diffusion stencil at zero velocity, whose upwind terms then add
// and subtract exact zeros.
func Laplace2D(nx, ny int) *sparse.CSR { return buildSerial(nx*ny, convDiff2D(nx, ny, 0, 0)) }

// Laplace2DDist returns the distributed 5-point Laplacian; the map's global
// size must equal nx*ny.
func Laplace2DDist(c *comm.Comm, m *distmap.Map, nx, ny int) *tpetra.CrsMatrix {
	return ConvDiff2DDist(c, m, nx, ny, 0, 0)
}

// Laplace3DRow is the 7-point stencil on an nx x ny x nz grid.
func Laplace3DRow(nx, ny, nz int) RowFunc { return laplace3D(nx, ny, nz).rowFunc(7) }

// laplace3D generates Laplace3DRow's rows.
func laplace3D(nx, ny, nz int) stencil {
	return func(i int, cols []int, vals []float64) ([]int, []float64) {
		x := i % nx
		y := (i / nx) % ny
		z := i / (nx * ny)
		if z > 0 {
			cols, vals = append(cols, i-nx*ny), append(vals, -1)
		}
		if y > 0 {
			cols, vals = append(cols, i-nx), append(vals, -1)
		}
		if x > 0 {
			cols, vals = append(cols, i-1), append(vals, -1)
		}
		cols, vals = append(cols, i), append(vals, 6)
		if x < nx-1 {
			cols, vals = append(cols, i+1), append(vals, -1)
		}
		if y < ny-1 {
			cols, vals = append(cols, i+nx), append(vals, -1)
		}
		if z < nz-1 {
			cols, vals = append(cols, i+nx*ny), append(vals, -1)
		}
		return cols, vals
	}
}

// Laplace3D returns the 7-point Laplacian on an nx x ny x nz grid.
func Laplace3D(nx, ny, nz int) *sparse.CSR {
	return buildSerial(nx*ny*nz, laplace3D(nx, ny, nz))
}

// Laplace3DDist returns the distributed 7-point Laplacian.
func Laplace3DDist(c *comm.Comm, m *distmap.Map, nx, ny, nz int) *tpetra.CrsMatrix {
	if m.NumGlobal() != nx*ny*nz {
		panic(fmt.Sprintf("galeri: map size %d != %d x %d x %d", m.NumGlobal(), nx, ny, nz))
	}
	return buildDist(c, m, laplace3D(nx, ny, nz))
}

// convDiff2D is an upwinded convection-diffusion 5-point stencil with
// convection velocity (px, py) on an nx x ny grid (h = 1/(nx+1)). The
// resulting matrix is non-symmetric, exercising GMRES/BiCGSTAB paths.
func convDiff2D(nx, ny int, px, py float64) stencil {
	h := 1.0 / float64(nx+1)
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
	return func(i int, cols []int, vals []float64) ([]int, []float64) {
		x, y := i%nx, i/nx
		if y > 0 {
			cols, vals = append(cols, i-nx), append(vals, s)
		}
		if x > 0 {
			cols, vals = append(cols, i-1), append(vals, w)
		}
		cols, vals = append(cols, i), append(vals, diag)
		if x < nx-1 {
			cols, vals = append(cols, i+1), append(vals, e)
		}
		if y < ny-1 {
			cols, vals = append(cols, i+nx), append(vals, n)
		}
		return cols, vals
	}
}

// ConvDiff2DDist returns the distributed convection-diffusion matrix.
func ConvDiff2DDist(c *comm.Comm, m *distmap.Map, nx, ny int, px, py float64) *tpetra.CrsMatrix {
	if m.NumGlobal() != nx*ny {
		panic(fmt.Sprintf("galeri: map size %d != %d x %d", m.NumGlobal(), nx, ny))
	}
	return buildDist(c, m, convDiff2D(nx, ny, px, py))
}

// tridiag is a general tridiagonal stencil [lo, diag, hi].
func tridiag(n int, lo, diag, hi float64) stencil {
	return func(i int, cols []int, vals []float64) ([]int, []float64) {
		if i > 0 {
			cols, vals = append(cols, i-1), append(vals, lo)
		}
		cols, vals = append(cols, i), append(vals, diag)
		if i < n-1 {
			cols, vals = append(cols, i+1), append(vals, hi)
		}
		return cols, vals
	}
}

// TridiagDist returns the distributed tridiagonal matrix [lo, diag, hi].
func TridiagDist(c *comm.Comm, m *distmap.Map, lo, diag, hi float64) *tpetra.CrsMatrix {
	return buildDist(c, m, tridiag(m.NumGlobal(), lo, diag, hi))
}
