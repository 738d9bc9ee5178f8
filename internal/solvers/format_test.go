package solvers

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/sparse"
	"odinhpc/internal/tpetra"
)

// csrOperator applies a CrsMatrix's local rows as a plain CSR block, the
// way CrsMatrix.Apply would without its SELL mirror: over x's owned entries
// followed by its ghosts in ascending global order, so every row sums its
// products in the same order as the matrix's own local block.
type csrOperator struct {
	m     *distmap.Map
	local *sparse.CSR
	ghost []int // global indices of the ghost columns, ascending
}

func newCSROperator(a *tpetra.CrsMatrix, me int) *csrOperator {
	m := a.Map()
	nOwned := m.LocalCount(me)
	ghostPos := map[int]int{}
	a.LocalRows(func(_ int, cols []int, _ []float64) {
		for _, g := range cols {
			if m.Owner(g) != me {
				ghostPos[g] = 0
			}
		}
	})
	op := &csrOperator{m: m}
	for g := range ghostPos {
		op.ghost = append(op.ghost, g)
	}
	sort.Ints(op.ghost)
	for k, g := range op.ghost {
		ghostPos[g] = nOwned + k
	}
	coo := sparse.NewCOO(nOwned, nOwned+len(op.ghost))
	a.LocalRows(func(gr int, cols []int, vals []float64) {
		_, i := m.GlobalToLocal(gr)
		for k, g := range cols {
			j, ghost := ghostPos[g]
			if !ghost {
				_, j = m.GlobalToLocal(g)
			}
			coo.Add(i, j, vals[k])
		}
	})
	op.local = coo.ToCSR()
	return op
}

func (o *csrOperator) Map() *distmap.Map { return o.m }

func (o *csrOperator) Apply(x, y *tpetra.Vector) {
	full := x.GatherAll()
	xFull := append([]float64(nil), x.Data...)
	for _, g := range o.ghost {
		xFull = append(xFull, full[g])
	}
	o.local.MulVec(xFull, y.Data)
}

// TestSolversFormatInvariant pins the SELL-C-sigma acceptance criterion:
// either sparse format produces bit-for-bit identical Krylov iterations,
// because the SELL kernels accumulate rows in CSR order. At these sizes
// every rank's block auto-selects SELL; the same rows applied as a plain
// CSR block are the other side of the comparison.
func TestSolversFormatInvariant(t *testing.T) {
	run := func(csr bool, nx, ny, p int, bicg bool) ([]float64, sparse.Format, error) {
		var out []float64
		var chosen sparse.Format
		err := comm.Run(p, func(c *comm.Comm) error {
			m := distmap.NewBlock(nx*ny, c.Size())
			a := galeri.Laplace2DDist(c, m, nx, ny)
			var op tpetra.Operator = a
			if csr {
				op = newCSROperator(a, c.Rank())
			}
			xTrue := tpetra.NewVector(c, m)
			xTrue.FillFromGlobal(func(g int) float64 { return math.Cos(0.3 * float64(g)) })
			b := tpetra.NewVector(c, m)
			a.Apply(xTrue, b)
			x := tpetra.NewVector(c, m)
			var err error
			if bicg {
				_, err = BiCGSTAB(op, b, x, Options{Tol: 1e-10})
			} else {
				_, err = CG(op, b, x, Options{Tol: 1e-10})
			}
			if err != nil {
				return err
			}
			full := x.GatherAll()
			if c.Rank() == 0 {
				out = full
				chosen = a.SpmvFormat()
			}
			return nil
		})
		return out, chosen, err
	}
	for _, tc := range []struct {
		nx, ny, p int
		bicg      bool
	}{
		{12, 11, 1, false},
		{12, 11, 4, false},
		{9, 8, 2, true},
	} {
		t.Run(fmt.Sprintf("nx%d-ny%d-p%d-bicg%v", tc.nx, tc.ny, tc.p, tc.bicg), func(t *testing.T) {
			xc, _, err := run(true, tc.nx, tc.ny, tc.p, tc.bicg)
			if err != nil {
				t.Fatal(err)
			}
			xs, fs, err := run(false, tc.nx, tc.ny, tc.p, tc.bicg)
			if err != nil {
				t.Fatal(err)
			}
			if fs != sparse.FormatSELL {
				t.Fatalf("matrix auto-selected %v, want sell", fs)
			}
			for i := range xc {
				if math.Float64bits(xc[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("x[%d] differs between formats: %x vs %x", i, xc[i], xs[i])
				}
			}
		})
	}
}
