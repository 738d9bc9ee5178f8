package tpetra

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
)

// TestGatherPlanQuick: for random maps and random request lists, Gather
// returns exactly the elements of the assembled global vector.
func TestGatherPlanQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		p := 1 + rng.Intn(4)
		var m *distmap.Map
		switch rng.Intn(3) {
		case 0:
			m = distmap.NewBlock(n, p)
		case 1:
			m = distmap.NewCyclic(n, p)
		default:
			owners := make([]int, n)
			for i := range owners {
				owners[i] = rng.Intn(p)
			}
			m = distmap.NewArbitrary(owners, p)
		}
		// Per-rank random request lists (with duplicates).
		needed := make([][]int, p)
		for r := 0; r < p; r++ {
			k := rng.Intn(10)
			for j := 0; j < k; j++ {
				needed[r] = append(needed[r], rng.Intn(n))
			}
		}
		err := comm.Run(p, func(c *comm.Comm) error {
			v := NewVector(c, m)
			v.FillFromGlobal(func(g int) float64 { return float64(g*g + 3) })
			plan := NewGatherPlan(c, m, needed[c.Rank()])
			out := make([]float64, plan.OutLen())
			plan.Gather(c, v.Data, out)
			for k, g := range needed[c.Rank()] {
				if out[k] != float64(g*g+3) {
					return fmt.Errorf("rank %d: out[%d]=%g want %d", c.Rank(), k, out[k], g*g+3)
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestImportChainQuick: importing through a chain of random maps and back
// to the original map is the identity.
func TestImportChainQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		p := 1 + rng.Intn(4)
		mkMap := func() *distmap.Map {
			switch rng.Intn(3) {
			case 0:
				return distmap.NewBlock(n, p)
			case 1:
				return distmap.NewCyclic(n, p)
			default:
				owners := make([]int, n)
				for i := range owners {
					owners[i] = rng.Intn(p)
				}
				return distmap.NewArbitrary(owners, p)
			}
		}
		m0 := distmap.NewBlock(n, p)
		m1, m2 := mkMap(), mkMap()
		err := comm.Run(p, func(c *comm.Comm) error {
			x := NewVector(c, m0)
			x.Randomize(seed)
			y := ImportVector(ImportVector(ImportVector(x, m1), m2), m0)
			for i := range x.Data {
				if x.Data[i] != y.Data[i] {
					return fmt.Errorf("chain not identity at %d", i)
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestExportAddQuick: random scattered contributions sum to the same totals
// as a serial accumulation.
func TestExportAddQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		p := 1 + rng.Intn(4)
		// Each rank r contributes contribs[r] = list of (global, value).
		type pair struct {
			g int
			v float64
		}
		contribs := make([][]pair, p)
		want := make([]float64, n)
		for r := 0; r < p; r++ {
			k := rng.Intn(20)
			for j := 0; j < k; j++ {
				pr := pair{rng.Intn(n), float64(rng.Intn(9) - 4)}
				contribs[r] = append(contribs[r], pr)
				want[pr.g] += pr.v
			}
		}
		err := comm.Run(p, func(c *comm.Comm) error {
			m := distmap.NewCyclic(n, p)
			v := NewVector(c, m)
			var gs []int
			var vs []float64
			for _, pr := range contribs[c.Rank()] {
				gs = append(gs, pr.g)
				vs = append(vs, pr.v)
			}
			ExportAdd(v, gs, vs)
			full := v.GatherAll()
			for g := range want {
				if full[g] != want[g] {
					return fmt.Errorf("v[%d]=%g want %g", g, full[g], want[g])
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
