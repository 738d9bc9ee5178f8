package eigen

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/tpetra"
)

func onRanks(t *testing.T, ps []int, fn func(c *comm.Comm) error) {
	t.Helper()
	for _, p := range ps {
		if err := comm.Run(p, fn); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// laplace1DEigen returns the k-th eigenvalue of the n-point [-1 2 -1]
// matrix: 2 - 2 cos(k*pi/(n+1)), k = 1..n.
func laplace1DEigen(n, k int) float64 {
	return 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
}

func TestLanczosFullSpectrum(t *testing.T) {
	onRanks(t, []int{1, 2}, func(c *comm.Comm) error {
		n := 12
		m := distmap.NewBlock(n, c.Size())
		a := galeri.Laplace1DDist(c, m)
		model := tpetra.NewVector(c, m)
		vals, err := Lanczos(a, model, n, Options{})
		if err != nil {
			return err
		}
		if len(vals) != n {
			return fmt.Errorf("got %d Ritz values", len(vals))
		}
		for k := 1; k <= n; k++ {
			want := laplace1DEigen(n, k)
			if math.Abs(vals[k-1]-want) > 1e-8 {
				return fmt.Errorf("eig %d: %g want %g", k, vals[k-1], want)
			}
		}
		return nil
	})
}

func TestLanczosPartialExtremes(t *testing.T) {
	// A modest Krylov dimension must capture the extreme eigenvalues well.
	onRanks(t, []int{1, 2}, func(c *comm.Comm) error {
		n := 100
		m := distmap.NewBlock(n, c.Size())
		a := galeri.Laplace1DDist(c, m)
		model := tpetra.NewVector(c, m)
		vals, err := Lanczos(a, model, 40, Options{})
		if err != nil {
			return err
		}
		loWant := laplace1DEigen(n, 1)
		hiWant := laplace1DEigen(n, n)
		if math.Abs(vals[len(vals)-1]-hiWant) > 5e-3 {
			return fmt.Errorf("hi=%g want %g", vals[len(vals)-1], hiWant)
		}
		if vals[0] < loWant-1e-8 {
			return fmt.Errorf("lo=%g below true minimum %g", vals[0], loWant)
		}
		return nil
	})
}

func TestSpectralBounds(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		n := 50
		m := distmap.NewBlock(n, c.Size())
		a := galeri.Laplace1DDist(c, m)
		model := tpetra.NewVector(c, m)
		lo, hi, err := SpectralBounds(a, model, 30)
		if err != nil {
			return err
		}
		if lo <= 0 || hi >= 4.0001 || hi <= 3.5 {
			return fmt.Errorf("bounds [%g, %g] implausible for the 1-D Laplacian", lo, hi)
		}
		return nil
	})
}

func TestLanczosValidation(t *testing.T) {
	onRanks(t, []int{1}, func(c *comm.Comm) error {
		m := distmap.NewBlock(5, 1)
		a := galeri.Laplace1DDist(c, m)
		model := tpetra.NewVector(c, m)
		if _, err := Lanczos(a, model, 0, Options{}); err == nil {
			return fmt.Errorf("k=0 accepted")
		}
		// k > n is clamped, not an error.
		vals, err := Lanczos(a, model, 50, Options{})
		if err != nil {
			return err
		}
		if len(vals) > 5 {
			return fmt.Errorf("k clamp failed: %d values", len(vals))
		}
		return nil
	})
}

func TestTqliSmall(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	d := []float64{2, 2}
	e := []float64{0, 1}
	if err := tqli(d, e); err != nil {
		t.Fatal(err)
	}
	sortFloats(d)
	if math.Abs(d[0]-1) > 1e-12 || math.Abs(d[1]-3) > 1e-12 {
		t.Fatalf("eigs=%v", d)
	}
	// Empty input is a no-op.
	if err := tqli(nil, nil); err != nil {
		t.Fatal(err)
	}
}
