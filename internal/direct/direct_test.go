package direct

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/tpetra"
)

func TestSolveOnceLaplacian(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		err := comm.Run(p, func(c *comm.Comm) error {
			n := 40
			m := distmap.NewBlock(n, c.Size())
			a := galeri.Laplace1DDist(c, m)
			xTrue := tpetra.NewVector(c, m)
			xTrue.FillFromGlobal(func(g int) float64 { return math.Sin(float64(g) * 0.3) })
			b := tpetra.NewVector(c, m)
			a.Apply(xTrue, b)
			x := tpetra.NewVector(c, m)
			if err := SolveOnce(a, b, x); err != nil {
				return err
			}
			d := x.Clone()
			d.Axpy(-1, xTrue)
			if rel := d.Norm2() / xTrue.Norm2(); rel > 1e-10 {
				return fmt.Errorf("error %g", rel)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestFactorReuseMultipleRHS(t *testing.T) {
	err := comm.Run(3, func(c *comm.Comm) error {
		n := 30
		m := distmap.NewCyclic(n, c.Size())
		a := galeri.ConvDiff2DDist(c, m, 6, 5, 5, 2)
		f, err := Factor(a)
		if err != nil {
			return err
		}
		for trial := 0; trial < 3; trial++ {
			xTrue := tpetra.NewVector(c, m)
			xTrue.FillFromGlobal(func(g int) float64 { return float64((g*trial)%7) - 3 })
			b := tpetra.NewVector(c, m)
			a.Apply(xTrue, b)
			x := tpetra.NewVector(c, m)
			if err := f.Solve(b, x); err != nil {
				return err
			}
			d := x.Clone()
			d.Axpy(-1, xTrue)
			if d.Norm2() > 1e-9 {
				return fmt.Errorf("trial %d error %g", trial, d.Norm2())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingularMatrixFails(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		m := distmap.NewBlock(4, c.Size())
		a := tpetra.NewCrsMatrix(c, m)
		// Rank-deficient: all rows identical.
		me := c.Rank()
		for l := 0; l < m.LocalCount(me); l++ {
			g := m.LocalToGlobal(me, l)
			a.InsertGlobal(g, 0, 1)
			a.InsertGlobal(g, 1, 1)
		}
		a.FillComplete()
		if _, err := Factor(a); err == nil {
			return fmt.Errorf("singular matrix factored")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWrongMapRejected(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		m := distmap.NewBlock(10, c.Size())
		a := galeri.Laplace1DDist(c, m)
		f, err := Factor(a)
		if err != nil {
			return err
		}
		other := distmap.NewCyclic(10, c.Size())
		b := tpetra.NewVector(c, other)
		x := tpetra.NewVector(c, other)
		if err := f.Solve(b, x); err == nil {
			return fmt.Errorf("wrong map accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
