package tpetra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/sparse"
)

// buildLaplace1D assembles the [-1 2 -1] operator on the given map; every
// rank inserts only its own rows, as in real Tpetra assembly.
func buildLaplace1D(c *comm.Comm, m *distmap.Map) *CrsMatrix {
	n := m.NumGlobal()
	a := NewCrsMatrix(c, m)
	me := c.Rank()
	for l := 0; l < m.LocalCount(me); l++ {
		g := m.LocalToGlobal(me, l)
		a.InsertGlobal(g, g, 2)
		if g > 0 {
			a.InsertGlobal(g, g-1, -1)
		}
		if g < n-1 {
			a.InsertGlobal(g, g+1, -1)
		}
	}
	a.FillComplete()
	return a
}

func serialLaplace1D(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

func TestGatherPlanLocalOnly(t *testing.T) {
	onRanks(t, []int{1, 4}, func(c *comm.Comm) error {
		m := distmap.NewBlock(16, c.Size())
		// Request only own globals: no remote traffic.
		needed := m.GlobalsOn(c.Rank())
		p := NewGatherPlan(c, m, needed)
		if p.RemoteCount() != 0 {
			return fmt.Errorf("RemoteCount=%d want 0", p.RemoteCount())
		}
		local := make([]float64, len(needed))
		for i := range local {
			local[i] = float64(needed[i])
		}
		out := make([]float64, p.OutLen())
		p.Gather(c, local, out)
		for k, g := range needed {
			if out[k] != float64(g) {
				return fmt.Errorf("out[%d]=%g want %d", k, out[k], g)
			}
		}
		return nil
	})
}

func TestGatherPlanRemote(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		const n = 20
		m := distmap.NewBlock(n, c.Size())
		// Every rank requests a fixed scattered set, including duplicates.
		needed := []int{0, n - 1, 7, 7, 3}
		p := NewGatherPlan(c, m, needed)
		local := make([]float64, m.LocalCount(c.Rank()))
		for l := range local {
			local[l] = float64(m.LocalToGlobal(c.Rank(), l) * 10)
		}
		out := make([]float64, p.OutLen())
		p.Gather(c, local, out)
		want := []float64{0, (n - 1) * 10, 70, 70, 30}
		for k := range want {
			if out[k] != want[k] {
				return fmt.Errorf("rank %d: out=%v want %v", c.Rank(), out, want)
			}
		}
		return nil
	})
}

func TestGatherPlanReusable(t *testing.T) {
	onRanks(t, []int{3}, func(c *comm.Comm) error {
		m := distmap.NewCyclic(9, c.Size())
		needed := []int{8, 0, 4}
		p := NewGatherPlan(c, m, needed)
		for trial := 0; trial < 3; trial++ {
			local := make([]float64, m.LocalCount(c.Rank()))
			for l := range local {
				local[l] = float64(trial*100 + m.LocalToGlobal(c.Rank(), l))
			}
			out := make([]float64, 3)
			p.Gather(c, local, out)
			for k, g := range needed {
				if out[k] != float64(trial*100+g) {
					return fmt.Errorf("trial %d: out=%v", trial, out)
				}
			}
		}
		return nil
	})
}

func TestImportBlockToCyclic(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		const n = 26
		src := distmap.NewBlock(n, c.Size())
		dst := distmap.NewCyclic(n, c.Size())
		x := NewVector(c, src)
		x.FillFromGlobal(func(g int) float64 { return float64(g) + 0.5 })
		im := NewImport(c, src, dst)
		y := NewVector(c, dst)
		im.Apply(x, y)
		full := y.GatherAll()
		for g, v := range full {
			if v != float64(g)+0.5 {
				return fmt.Errorf("full[%d]=%g", g, v)
			}
		}
		// Convenience wrapper agrees.
		z := ImportVector(x, dst)
		for i := range z.Data {
			if z.Data[i] != y.Data[i] {
				return fmt.Errorf("ImportVector mismatch")
			}
		}
		return nil
	})
}

func TestImportIdentityNoTraffic(t *testing.T) {
	stats, err := comm.RunStats(4, func(c *comm.Comm) error {
		m := distmap.NewBlock(40, c.Size())
		x := NewVector(c, m)
		x.Randomize(3)
		c.Barrier()
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		im := NewImport(c, m, m)
		if im.plan.RemoteCount() != 0 {
			return fmt.Errorf("identity import has remote elements")
		}
		y := NewVector(c, m)
		im.Apply(x, y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The only traffic should be the (empty) alltoalls + barriers: no
	// float64 payloads of size 40/4*8=80.
	snap := stats.Snapshot()
	for src := 0; src < snap.Size; src++ {
		for dst := 0; dst < snap.Size; dst++ {
			if src != dst && snap.ByteCount(src, dst) > 64 {
				t.Fatalf("identity import moved %d bytes %d->%d", snap.ByteCount(src, dst), src, dst)
			}
		}
	}
}

func TestImportSizeMismatchPanics(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		defer func() { recover() }()
		NewImport(c, distmap.NewBlock(10, 2), distmap.NewBlock(11, 2))
		return fmt.Errorf("expected panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrsMatrixApplyMatchesSerial(t *testing.T) {
	const n = 33
	serial := serialLaplace1D(n)
	xref := make([]float64, n)
	for i := range xref {
		xref[i] = math.Cos(float64(i))
	}
	yref := make([]float64, n)
	serial.MulVec(xref, yref)

	onRanks(t, sizes, func(c *comm.Comm) error {
		for _, m := range []*distmap.Map{
			distmap.NewBlock(n, c.Size()),
			distmap.NewCyclic(n, c.Size()),
			distmap.NewBlockCyclic(n, c.Size(), 3),
		} {
			a := buildLaplace1D(c, m)
			x := NewVector(c, m)
			x.FillFromGlobal(func(g int) float64 { return math.Cos(float64(g)) })
			y := NewVector(c, m)
			a.Apply(x, y)
			full := y.GatherAll()
			for g := range full {
				if math.Abs(full[g]-yref[g]) > 1e-12 {
					return fmt.Errorf("%v: y[%d]=%g want %g", m, g, full[g], yref[g])
				}
			}
		}
		return nil
	})
}

func TestCrsMatrixGhostCount(t *testing.T) {
	// Block-distributed 1-D Laplacian: interior ranks need exactly 2 ghosts.
	onRanks(t, []int{4}, func(c *comm.Comm) error {
		a := buildLaplace1D(c, distmap.NewBlock(40, c.Size()))
		want := 2
		if c.Rank() == 0 || c.Rank() == c.Size()-1 {
			want = 1
		}
		if len(a.ghost) != want {
			return fmt.Errorf("rank %d ghosts=%d want %d", c.Rank(), len(a.ghost), want)
		}
		return nil
	})
}

func TestCrsMatrixDiagonal(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		a := buildLaplace1D(c, distmap.NewBlock(17, c.Size()))
		d := a.Diagonal()
		for _, v := range d.Data {
			if v != 2 {
				return fmt.Errorf("diag=%v", d.Data)
			}
		}
		return nil
	})
}

func TestCrsMatrixNNZAndNorm(t *testing.T) {
	const n = 12
	onRanks(t, sizes, func(c *comm.Comm) error {
		a := buildLaplace1D(c, distmap.NewBlock(n, c.Size()))
		g := a.GatherCSR()
		if got := g.NNZ(); got != 3*n-2 {
			return fmt.Errorf("nnz=%d", got)
		}
		var sq float64
		for _, v := range g.Val {
			sq += v * v
		}
		want := math.Sqrt(4*float64(n) + 2*float64(n-1))
		if got := math.Sqrt(sq); math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("fro=%g want %g", got, want)
		}
		return nil
	})
}

func TestLocalDiagonalBlock(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		a := buildLaplace1D(c, distmap.NewBlock(8, c.Size()))
		blk := a.LocalDiagonalBlock()
		if blk.Rows != 4 || blk.Cols != 4 {
			return fmt.Errorf("block shape %dx%d", blk.Rows, blk.Cols)
		}
		// Block of the tridiagonal is the local tridiagonal (coupling to the
		// other rank's rows dropped).
		if blk.At(0, 0) != 2 || blk.At(0, 1) != -1 || blk.At(3, 2) != -1 {
			return fmt.Errorf("block content %v", blk.Dense())
		}
		return nil
	})
}

func TestTransposeDist(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		nx, ny := 6, 4
		n := nx * ny
		m := distmap.NewBlock(n, c.Size())
		// Non-symmetric matrix so the transpose is distinguishable.
		a := NewCrsMatrix(c, m)
		me := c.Rank()
		for l := 0; l < m.LocalCount(me); l++ {
			g := m.LocalToGlobal(me, l)
			a.InsertGlobal(g, g, 2)
			if g+1 < n {
				a.InsertGlobal(g, g+1, float64(g)+1) // upper band only
			}
		}
		a.FillComplete()
		at := a.TransposeDist()
		// Serial check.
		want := a.GatherCSR().Transpose()
		got := at.GatherCSR()
		if !got.Equal(want) {
			return fmt.Errorf("distributed transpose differs from serial")
		}
		// Transposing twice returns the original.
		back := at.TransposeDist().GatherCSR()
		if !back.Equal(a.GatherCSR()) {
			return fmt.Errorf("double transpose not identity")
		}
		return nil
	})
}

func TestGatherCSRRoundTrip(t *testing.T) {
	const n = 19
	want := serialLaplace1D(n)
	onRanks(t, sizes, func(c *comm.Comm) error {
		a := buildLaplace1D(c, distmap.NewCyclic(n, c.Size()))
		got := a.GatherCSR()
		if !got.Equal(want) {
			return fmt.Errorf("gathered CSR differs")
		}
		return nil
	})
}

// fromCSR distributes a serial CSR matrix (replicated on every rank) over
// rowMap, each rank inserting its own rows. Collective.
func fromCSR(c *comm.Comm, rowMap *distmap.Map, m *sparse.CSR) *CrsMatrix {
	a := NewCrsMatrix(c, rowMap)
	me := c.Rank()
	for l := 0; l < rowMap.LocalCount(me); l++ {
		g := rowMap.LocalToGlobal(me, l)
		cols, vals := m.Row(g)
		for k, j := range cols {
			a.InsertGlobal(g, j, vals[k])
		}
	}
	a.FillComplete()
	return a
}

// TestFromCSRMatchesAssembly checks that a matrix filled row by row from a
// serial CSR applies exactly as the same matrix assembled entry by entry
// (buildLaplace1D).
func TestFromCSRMatchesAssembly(t *testing.T) {
	const n = 15
	serial := serialLaplace1D(n)
	onRanks(t, sizes, func(c *comm.Comm) error {
		m := distmap.NewBlock(n, c.Size())
		a := fromCSR(c, m, serial)
		b := buildLaplace1D(c, m)
		x := NewVector(c, m)
		x.Randomize(5)
		ya := NewVector(c, m)
		yb := NewVector(c, m)
		a.Apply(x, ya)
		b.Apply(x, yb)
		for i := range ya.Data {
			if ya.Data[i] != yb.Data[i] {
				return fmt.Errorf("fromCSR apply differs")
			}
		}
		return nil
	})
}

func TestCrsMatrixStatePanics(t *testing.T) {
	err := comm.Run(1, func(c *comm.Comm) error {
		m := distmap.NewBlock(4, 1)
		a := NewCrsMatrix(c, m)
		// Apply before FillComplete panics.
		func() {
			defer func() { recover() }()
			a.Apply(NewVector(c, m), NewVector(c, m))
			panic("unreachable")
		}()
		a.InsertGlobal(0, 0, 1)
		a.FillComplete()
		// Double FillComplete panics.
		func() {
			defer func() { recover() }()
			a.FillComplete()
			panic("unreachable")
		}()
		// Insert after FillComplete panics.
		func() {
			defer func() { recover() }()
			a.InsertGlobal(0, 0, 1)
			panic("unreachable")
		}()
		if a.String() == "" {
			return fmt.Errorf("String")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForeignRowAssembly verifies Tpetra-style export-on-fill: each rank
// contributes to rows it does not own (finite-element boundary assembly),
// and FillComplete migrates and sums the contributions at their owners.
func TestForeignRowAssembly(t *testing.T) {
	onRanks(t, []int{2, 3, 4}, func(c *comm.Comm) error {
		n := 8
		m := distmap.NewBlock(n, c.Size())
		a := NewCrsMatrix(c, m)
		// Every rank adds 1 to every diagonal entry, owned or not.
		for g := 0; g < n; g++ {
			a.InsertGlobal(g, g, 1)
		}
		a.FillComplete()
		d := a.Diagonal()
		for g := 0; g < n; g++ {
			if got := d.GetGlobal(g); got != float64(c.Size()) {
				return fmt.Errorf("diag[%d]=%g want %d", g, got, c.Size())
			}
		}
		return nil
	})
}

func TestExportAddSumsAtOwner(t *testing.T) {
	onRanks(t, []int{1, 2, 4}, func(c *comm.Comm) error {
		n := 10
		m := distmap.NewBlock(n, c.Size())
		v := NewVector(c, m)
		// Every rank contributes rank+1 to element 0 and 1 to its own first
		// element.
		ExportAdd(v, []int{0}, []float64{float64(c.Rank() + 1)})
		want := 0.0
		for r := 0; r < c.Size(); r++ {
			want += float64(r + 1)
		}
		if got := v.GetGlobal(0); got != want {
			return fmt.Errorf("v[0]=%g want %g", got, want)
		}
		// Repeatable (accumulates).
		ExportAdd(v, []int{n - 1, n - 1}, []float64{1, 2})
		if got := v.GetGlobal(n - 1); got != 3*float64(c.Size()) {
			return fmt.Errorf("v[n-1]=%g want %g", got, 3*float64(c.Size()))
		}
		return nil
	})
}

func TestExportAddValidation(t *testing.T) {
	err := comm.Run(1, func(c *comm.Comm) error {
		v := NewVector(c, distmap.NewBlock(4, 1))
		defer func() { recover() }()
		ExportAdd(v, []int{0, 1}, []float64{1})
		return fmt.Errorf("expected panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: distributed SpMV on random sparse matrices over random maps
// matches the serial product.
func TestCrsMatrixApplyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		p := 1 + rng.Intn(4)
		coo := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 3)
			for k := 0; k < 2; k++ {
				coo.Add(i, rng.Intn(n), rng.NormFloat64())
			}
		}
		serial := coo.ToCSR()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		serial.MulVec(x, want)
		ok := true
		err := comm.Run(p, func(c *comm.Comm) error {
			m := distmap.NewCyclic(n, c.Size())
			a := fromCSR(c, m, serial)
			xv := NewVector(c, m)
			xv.FillFromGlobal(func(g int) float64 { return x[g] })
			yv := NewVector(c, m)
			a.Apply(xv, yv)
			full := yv.GatherAll()
			for g := range full {
				if math.Abs(full[g]-want[g]) > 1e-10 {
					return fmt.Errorf("mismatch at %d", g)
				}
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
