package tpetra

import (
	"fmt"
	"sort"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/sparse"
)

// CrsMatrix is a row-distributed sparse matrix: each rank stores the rows
// its row map assigns to it. Columns are global during assembly; after
// FillComplete they are renumbered into a local column space consisting of
// the owned domain entries followed by the ghost (off-rank) entries, and a
// GatherPlan is precomputed to fetch ghost values of x on every Apply.
//
// The domain and range maps equal the row map (square operators), which is
// all the solver stack requires.
type CrsMatrix struct {
	c      *comm.Comm
	rowMap *distmap.Map

	// Assembly state (before FillComplete).
	building bool
	coo      *sparse.COO // local rows, global columns
	// Contributions inserted into rows owned by other ranks; migrated to
	// their owners (with summation) during FillComplete, as in Tpetra's
	// insertGlobalValues + fillComplete export.
	foreignRow []int
	foreignCol []int
	foreignVal []float64

	// Assembled state. Exactly one local copy of the rows is kept: sell
	// when the format auto-selector picks SELL-C-sigma (local is then nil),
	// local otherwise.
	local      *sparse.CSR  // nOwnedRows x (nOwned + nGhost)
	sell       *sparse.SELL // the rows as SELL-C-sigma when auto-selected
	colGlobals []int        // local column id -> global index
	nOwned     int          // owned domain entries (== local row count)
	ghost      []int        // global indices of ghost columns (sorted)
	plan       *GatherPlan
	// xFull is matrix-owned Apply scratch — x's owned entries followed by
	// its ghosts — refilled in place by every Apply. Unlike the (immutable,
	// shareable) GatherPlan underneath, this makes the matrix itself
	// single-threaded: one CrsMatrix must not be Applied concurrently from
	// multiple goroutines — planreuse enforces the shape, and a matrix is
	// bound to its communicator anyway.
	xFull []float64
}

// NewCrsMatrix returns an empty matrix in assembly mode over the given row
// map. Insert entries with InsertGlobal, then call FillComplete.
func NewCrsMatrix(c *comm.Comm, rowMap *distmap.Map) *CrsMatrix {
	if rowMap.NumRanks() != c.Size() {
		panic(fmt.Sprintf("tpetra: row map has %d ranks, communicator has %d", rowMap.NumRanks(), c.Size()))
	}
	n := rowMap.NumGlobal()
	return &CrsMatrix{
		c:        c,
		rowMap:   rowMap,
		building: true,
		coo:      sparse.NewCOO(rowMap.LocalCount(c.Rank()), n),
	}
}

// InsertGlobal adds value v at global (row, col). Duplicate insertions are
// summed at FillComplete. Rows owned by other ranks are accepted and
// migrated to their owners during FillComplete (finite-element assembly of
// shared boundary contributions), matching Tpetra's export-on-fill
// semantics.
func (a *CrsMatrix) InsertGlobal(row, col int, v float64) {
	if !a.building {
		panic("tpetra: InsertGlobal after FillComplete")
	}
	if local, ok := a.rowMap.LocalOn(a.c.Rank(), row); ok {
		a.coo.Add(local, col, v)
		return
	}
	if col < 0 || col >= a.rowMap.NumGlobal() {
		panic(fmt.Sprintf("tpetra: column %d out of range", col))
	}
	a.foreignRow = append(a.foreignRow, row)
	a.foreignCol = append(a.foreignCol, col)
	a.foreignVal = append(a.foreignVal, v)
}

// Reserve makes room for n more entries in locally owned rows, so that as
// many InsertGlobal calls never regrow the triplet arrays. It changes no
// result: an assembly that counts its entries first reserves them once.
func (a *CrsMatrix) Reserve(n int) {
	if !a.building {
		panic("tpetra: Reserve after FillComplete")
	}
	a.coo.Reserve(n)
}

// FillComplete finishes assembly: off-rank contributions are exported to
// their owning ranks, columns are renumbered into the local column space,
// and the ghost gather plan is built. Collective.
func (a *CrsMatrix) FillComplete() {
	if !a.building {
		panic("tpetra: FillComplete called twice")
	}
	a.building = false
	me := a.c.Rank()
	// Export foreign contributions to their owners.
	outRows := make([][]int, a.c.Size())
	outCols := make([][]int, a.c.Size())
	outVals := make([][]float64, a.c.Size())
	for k, row := range a.foreignRow {
		owner := a.rowMap.Owner(row)
		outRows[owner] = append(outRows[owner], row)
		outCols[owner] = append(outCols[owner], a.foreignCol[k])
		outVals[owner] = append(outVals[owner], a.foreignVal[k])
	}
	a.foreignRow, a.foreignCol, a.foreignVal = nil, nil, nil
	inRows := comm.Alltoall(a.c, outRows)
	inCols := comm.Alltoall(a.c, outCols)
	inVals := comm.Alltoall(a.c, outVals)
	for r := range inRows {
		for k, row := range inRows[r] {
			local, ok := a.rowMap.LocalOn(me, row)
			if !ok {
				panic(fmt.Sprintf("tpetra: rank %d received row %d owned by %d", me, row, a.rowMap.Owner(row)))
			}
			a.coo.Add(local, inCols[r][k], inVals[r][k])
		}
	}
	a.local = a.coo.ToCSR() // local rows, global columns until renumbered below
	a.coo = nil
	a.nOwned = a.rowMap.LocalCount(me)

	// Renumber columns in place: an owned global becomes its x-local index,
	// a ghost g (not owned here) is parked as ^g < 0 until its place k in the
	// sorted ghost list is known, then becomes nOwned + k.
	cols := a.local.ColIdx
	ghostPos := make(map[int]int)
	for k, g := range cols {
		if l, owned := a.rowMap.LocalOn(me, g); owned {
			cols[k] = l
		} else {
			cols[k] = ^g
			ghostPos[g] = 0
		}
	}
	a.ghost = make([]int, 0, len(ghostPos))
	for g := range ghostPos {
		a.ghost = append(a.ghost, g)
	}
	sort.Ints(a.ghost)
	for k, g := range a.ghost {
		ghostPos[g] = a.nOwned + k
	}
	for k, col := range cols {
		if col < 0 {
			cols[k] = ghostPos[^col]
		}
	}
	a.local.Cols = a.nOwned + len(a.ghost)
	// Renumbering is not monotone: re-sort each row. Its columns are
	// distinct (ToCSR merged duplicates), so the sorted order is unique.
	a.local.SortRows()

	a.colGlobals = make([]int, a.local.Cols)
	for l := 0; l < a.nOwned; l++ {
		a.colGlobals[l] = a.rowMap.LocalToGlobal(me, l)
	}
	copy(a.colGlobals[a.nOwned:], a.ghost)
	// SELL-C-sigma, when the format auto-selector picks it, is
	// bitwise-neutral — SELL kernels accumulate each row in the same order
	// as CSR — and it replaces the CSR: the cold readers rebuild the rows
	// exactly from it (localCSR), so one copy is stored, not two.
	if a.sell = sparse.AutoSELL(a.local); a.sell != nil {
		a.local = nil
	} else if m := a.local; cap(m.Val) > len(m.Val) { // duplicates merged: keep only the entries' bytes
		m.ColIdx = append(make([]int, 0, len(m.ColIdx)), m.ColIdx...)
		m.Val = append(make([]float64, 0, len(m.Val)), m.Val...)
	}
	a.plan = NewGatherPlan(a.c, a.rowMap, a.ghost)
	a.xFull = make([]float64, a.nOwned+len(a.ghost))
}

// SpmvFormat reports which local format Apply is using.
func (a *CrsMatrix) SpmvFormat() sparse.Format {
	a.mustBeFilled()
	if a.sell != nil {
		return sparse.FormatSELL
	}
	return sparse.FormatCSR
}

// Map returns the row (and domain, and range) map.
func (a *CrsMatrix) Map() *distmap.Map { return a.rowMap }

func (a *CrsMatrix) mustBeFilled() {
	if a.building {
		panic("tpetra: operation requires FillComplete")
	}
}

// localCSR returns the local rows as CSR: the kept copy, or a transient one
// rebuilt bit for bit from the SELL (sparse.(*SELL).ToCSR). Only cold paths
// read it; Apply runs on whichever copy is kept.
func (a *CrsMatrix) localCSR() *sparse.CSR {
	if a.sell != nil {
		return a.sell.ToCSR()
	}
	return a.local
}

// Apply computes y = A x. Both vectors must be distributed by the row map.
// Collective: performs the ghost exchange then a local SpMV. Apply refills
// the matrix-owned xFull scratch, so a CrsMatrix is single-threaded;
// serialize Applies of one matrix (a warm rank group does this naturally).
func (a *CrsMatrix) Apply(x, y *Vector) {
	a.mustBeFilled()
	if !x.Map().SameAs(a.rowMap) || !y.Map().SameAs(a.rowMap) {
		panic("tpetra: Apply vectors must use the matrix row map")
	}
	a.plan.Gather(a.c, x.Data, a.xFull[a.nOwned:])
	copy(a.xFull[:a.nOwned], x.Data)
	if a.sell != nil {
		a.sell.MulVec(a.xFull, y.Data)
	} else {
		a.local.MulVec(a.xFull, y.Data)
	}
}

// Diagonal returns the matrix diagonal as a distributed vector.
func (a *CrsMatrix) Diagonal() *Vector {
	a.mustBeFilled()
	d := NewVector(a.c, a.rowMap)
	local := a.localCSR()
	for l := 0; l < a.nOwned; l++ {
		d.Data[l] = local.At(l, l) // owned column l corresponds to owned row l
	}
	return d
}

// LocalDiagonalBlock extracts this rank's owned-rows x owned-columns block
// as a serial CSR matrix — the sub-operator used by block-Jacobi and
// additive-Schwarz preconditioning.
func (a *CrsMatrix) LocalDiagonalBlock() *sparse.CSR {
	a.mustBeFilled()
	coo := sparse.NewCOO(a.nOwned, a.nOwned)
	local := a.localCSR()
	for i := 0; i < local.Rows; i++ {
		cols, vals := local.Row(i)
		for k, j := range cols {
			if j < a.nOwned {
				coo.Add(i, j, vals[k])
			}
		}
	}
	return coo.ToCSR()
}

// LocalRows hands this rank's rows to f as (globalRow, cols, vals), with
// global column indices, for algorithms that need raw access (AMG setup,
// gathering). cols is one buffer, refilled for every row, and vals aliases
// the matrix's storage: f must not retain or modify either.
func (a *CrsMatrix) LocalRows(f func(globalRow int, cols []int, vals []float64)) {
	a.mustBeFilled()
	me := a.c.Rank()
	local := a.localCSR()
	var gcols []int
	for i := 0; i < local.Rows; i++ {
		lcols, vals := local.Row(i)
		gcols = gcols[:0]
		for _, j := range lcols {
			gcols = append(gcols, a.colGlobals[j])
		}
		f(a.rowMap.LocalToGlobal(me, i), gcols, vals)
	}
}

// TransposeDist returns A^T with the same row map, assembled in parallel:
// each rank re-inserts its entries with row/column swapped and the
// export-on-fill path routes them to their owners (EpetraExt's sparse
// transpose, paper Table I). Collective.
func (a *CrsMatrix) TransposeDist() *CrsMatrix {
	a.mustBeFilled()
	out := NewCrsMatrix(a.c, a.rowMap)
	a.LocalRows(func(gr int, cols []int, vals []float64) {
		for k := range cols {
			out.InsertGlobal(cols[k], gr, vals[k])
		}
	})
	out.FillComplete()
	return out
}

// GatherCSR assembles the full matrix as a serial CSR on every rank.
// Collective; intended for direct solvers and coarse-grid setup.
func (a *CrsMatrix) GatherCSR() *sparse.CSR {
	a.mustBeFilled()
	n := a.rowMap.NumGlobal()
	// Flatten local triples.
	var ri, ci []int
	var vv []float64
	a.LocalRows(func(gr int, cols []int, vals []float64) {
		for k := range cols {
			ri = append(ri, gr)
			ci = append(ci, cols[k])
			vv = append(vv, vals[k])
		}
	})
	allRI := comm.AllgatherFlat(a.c, ri)
	allCI := comm.AllgatherFlat(a.c, ci)
	allVV := comm.AllgatherFlat(a.c, vv)
	coo := sparse.NewCOO(n, n)
	coo.Reserve(len(allRI))
	for k := range allRI {
		coo.Add(allRI[k], allCI[k], allVV[k])
	}
	return coo.ToCSR()
}

func (a *CrsMatrix) String() string {
	state := "assembling"
	if !a.building {
		state = fmt.Sprintf("filled, local nnz=%d, ghosts=%d", a.localCSR().NNZ(), len(a.ghost))
	}
	return fmt.Sprintf("CrsMatrix{n=%d, %s}", a.rowMap.NumGlobal(), state)
}
