package tpetra_test

// Chaos conformance of the distributed linear-algebra kernels: Import
// (redistribution), ExportAdd (assembly), CrsMatrix.Apply (halo exchange via
// the ghost GatherPlan), and the vector reductions. Each kernel must match
// its fault-free run bitwise under every fault plan or fail with a typed
// comm.FaultError.

import (
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
	"odinhpc/internal/distmap"
	"odinhpc/internal/tpetra"
)

var chaosSizes = []int{1, 2, 4}

func fillVec(c *comm.Comm, m *distmap.Map) *tpetra.Vector {
	v := tpetra.NewVector(c, m)
	v.FillFromGlobal(func(g int) float64 { return float64(g*g)*0.25 - float64(g) })
	return v
}

func TestChaosTpetraKernels(t *testing.T) {
	const n = 37
	kernels := []chaostest.Kernel{
		{Name: "import-block-to-cyclic", Body: func(c *comm.Comm) (any, error) {
			src := fillVec(c, distmap.NewBlock(n, c.Size()))
			dst := tpetra.ImportVector(src, distmap.NewCyclic(n, c.Size()))
			return dst.GatherAll(), nil
		}},
		{Name: "import-cyclic-to-block", Body: func(c *comm.Comm) (any, error) {
			src := fillVec(c, distmap.NewCyclic(n, c.Size()))
			dst := tpetra.ImportVector(src, distmap.NewBlock(n, c.Size()))
			return append(dst.GatherAll(), float64(len(dst.Data))), nil
		}},
		{Name: "gatherplan-halo", Body: func(c *comm.Comm) (any, error) {
			m := distmap.NewBlock(n, c.Size())
			v := fillVec(c, m)
			// Each rank requests its block plus one halo element on each side.
			lo, hi := m.BlockRange(c.Rank())
			var needed []int
			if lo > 0 {
				needed = append(needed, lo-1)
			}
			for g := lo; g < hi; g++ {
				needed = append(needed, g)
			}
			if hi < n {
				needed = append(needed, hi)
			}
			plan := tpetra.NewGatherPlan(c, m, needed)
			out := make([]float64, plan.OutLen())
			plan.Gather(c, v.Data, out)
			plan.Gather(c, v.Data, out) // reuse: second apply must agree
			return out, nil
		}},
		{Name: "export-add", Body: func(c *comm.Comm) (any, error) {
			m := distmap.NewBlock(n, c.Size())
			v := tpetra.NewVector(c, m)
			// Every rank contributes to its own block and both neighbors'
			// boundary elements — the FE-assembly pattern.
			lo, hi := m.BlockRange(c.Rank())
			var globals []int
			var vals []float64
			for g := lo; g < hi; g++ {
				globals = append(globals, g)
				vals = append(vals, float64(g)+1)
			}
			if lo > 0 {
				globals = append(globals, lo-1)
				vals = append(vals, 0.5)
			}
			if hi < n {
				globals = append(globals, hi)
				vals = append(vals, 0.25)
			}
			tpetra.ExportAdd(v, globals, vals)
			return v.GatherAll(), nil
		}},
		{Name: "crsmatrix-apply", Body: func(c *comm.Comm) (any, error) {
			m := distmap.NewBlock(n, c.Size())
			a := tpetra.NewCrsMatrix(c, m)
			lo, hi := m.BlockRange(c.Rank())
			for g := lo; g < hi; g++ {
				a.InsertGlobal(g, g, 2)
				if g > 0 {
					a.InsertGlobal(g, g-1, -1)
				}
				if g < n-1 {
					a.InsertGlobal(g, g+1, -1)
				}
			}
			a.FillComplete()
			x := fillVec(c, m)
			y := tpetra.NewVector(c, m)
			a.Apply(x, y)
			a.Apply(y, x) // second apply reuses the ghost plan
			return x.GatherAll(), nil
		}},
		{Name: "vector-reductions", Body: func(c *comm.Comm) (any, error) {
			v := fillVec(c, distmap.NewBlock(n, c.Size()))
			w := fillVec(c, distmap.NewBlock(n, c.Size()))
			w.Scale(-1.5)
			return []float64{v.Dot(w), v.Norm2()}, nil
		}},
	}
	chaostest.Run(t, chaosSizes, 1007, kernels...)
}
