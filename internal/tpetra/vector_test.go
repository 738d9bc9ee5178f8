package tpetra

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
)

// onRanks runs fn on a fresh communicator of each size in ps, failing the
// test on any error.
func onRanks(t *testing.T, ps []int, fn func(c *comm.Comm) error) {
	t.Helper()
	for _, p := range ps {
		if err := comm.Run(p, fn); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

var sizes = []int{1, 2, 3, 4, 7}

func TestVectorLifecycle(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		m := distmap.NewBlock(23, c.Size())
		v := NewVector(c, m)
		if v.GlobalLen() != 23 {
			return fmt.Errorf("GlobalLen = %d", v.GlobalLen())
		}
		if len(v.Data) != m.LocalCount(c.Rank()) {
			return fmt.Errorf("local length = %d", len(v.Data))
		}
		if v.Comm() != c || v.Map() != m {
			return fmt.Errorf("accessors broken")
		}
		if v.String() == "" {
			return fmt.Errorf("String")
		}
		return nil
	})
}

func TestVectorMapRankMismatch(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		defer func() { recover() }()
		NewVector(c, distmap.NewBlock(10, 3))
		return fmt.Errorf("expected panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDotAndNormsMatchSerial(t *testing.T) {
	const n = 57
	// Serial reference.
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = math.Sin(float64(i) * 0.7)
	}
	var wantDot, wantSq float64
	for _, x := range ref {
		wantDot += x * (2 * x)
		wantSq += x * x
	}
	onRanks(t, sizes, func(c *comm.Comm) error {
		for _, m := range []*distmap.Map{
			distmap.NewBlock(n, c.Size()),
			distmap.NewCyclic(n, c.Size()),
			distmap.NewBlockCyclic(n, c.Size(), 4),
		} {
			v := NewVector(c, m)
			v.FillFromGlobal(func(g int) float64 { return math.Sin(float64(g) * 0.7) })
			w := v.Clone()
			w.Scale(2)
			if got := v.Dot(w); math.Abs(got-wantDot) > 1e-10 {
				return fmt.Errorf("%v: Dot=%g want %g", m, got, wantDot)
			}
			if got := v.Norm2(); math.Abs(got-math.Sqrt(wantSq)) > 1e-10 {
				return fmt.Errorf("%v: Norm2=%g", m, got)
			}
		}
		return nil
	})
}

func TestUpdateAxpyScale(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		m := distmap.NewBlock(20, c.Size())
		x := NewVector(c, m)
		x.PutScalar(1)
		y := NewVector(c, m)
		y.PutScalar(10)
		y.Axpy(2, x)        // 12
		y.Update(3, x, 0.5) // 3 + 6 = 9
		y.Scale(2)          // 18
		for g, got := range y.GatherAll() {
			if got != 18 {
				return fmt.Errorf("y[%d]=%g", g, got)
			}
		}
		return nil
	})
}

func TestElementWiseOps(t *testing.T) {
	onRanks(t, []int{1, 3}, func(c *comm.Comm) error {
		m := distmap.NewBlock(10, c.Size())
		x := NewVector(c, m)
		x.FillFromGlobal(func(g int) float64 { return float64(g) - 4.5 })
		y := NewVector(c, m)
		y.PutScalar(2)
		z := NewVector(c, m)
		z.ElementWiseMultiply(x, y)
		if got := z.GetGlobal(9); got != 2*(9-4.5) {
			return fmt.Errorf("mult=%g", got)
		}
		z.Reciprocal(y)
		if got := z.GetGlobal(3); got != 0.5 {
			return fmt.Errorf("recip=%g", got)
		}
		return nil
	})
}

func TestGatherAllOrdering(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		for _, m := range []*distmap.Map{
			distmap.NewBlock(13, c.Size()),
			distmap.NewCyclic(13, c.Size()),
		} {
			v := NewVector(c, m)
			v.FillFromGlobal(func(g int) float64 { return float64(g * g) })
			full := v.GatherAll()
			for g, x := range full {
				if x != float64(g*g) {
					return fmt.Errorf("%v: full[%d]=%g", m, g, x)
				}
			}
		}
		return nil
	})
}

func TestSetGetGlobal(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		m := distmap.NewCyclic(11, c.Size())
		v := NewVector(c, m)
		v.FillFromGlobal(func(g int) float64 { return float64(100 + g) })
		for g := 0; g < 11; g++ {
			if got := v.GetGlobal(g); got != float64(100+g) {
				return fmt.Errorf("GetGlobal(%d)=%g", g, got)
			}
		}
		return nil
	})
}

func TestRandomizeDeterministic(t *testing.T) {
	onRanks(t, []int{3}, func(c *comm.Comm) error {
		m := distmap.NewBlock(30, c.Size())
		a := NewVector(c, m)
		a.Randomize(7)
		b := NewVector(c, m)
		b.Randomize(7)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return fmt.Errorf("same seed differs")
			}
			if a.Data[i] < -1 || a.Data[i] >= 1 {
				return fmt.Errorf("out of range value %g", a.Data[i])
			}
		}
		d := NewVector(c, m)
		d.Randomize(8)
		same := true
		for i := range a.Data {
			if a.Data[i] != d.Data[i] {
				same = false
			}
		}
		if same && len(a.Data) > 0 {
			return fmt.Errorf("different seeds identical")
		}
		return nil
	})
}

func TestConformabilityPanics(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		x := NewVector(c, distmap.NewBlock(10, 2))
		y := NewVector(c, distmap.NewCyclic(10, 2))
		defer func() {
			if recover() == nil {
				panic("expected conformability panic")
			}
		}()
		x.Axpy(1, y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCopyFromClone(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		m := distmap.NewBlock(8, c.Size())
		x := NewVector(c, m)
		x.PutScalar(3)
		y := x.Clone()
		y.Scale(2)
		for _, v := range x.Data {
			if v != 3 {
				return fmt.Errorf("clone aliases")
			}
		}
		x.CopyFrom(y)
		for _, v := range x.Data {
			if v != 6 {
				return fmt.Errorf("CopyFrom")
			}
		}
		return nil
	})
}

func (v *Vector) String() string {
	return fmt.Sprintf("Vector{%v, rank %d holds %d}", v.m, v.c.Rank(), len(v.Data))
}
