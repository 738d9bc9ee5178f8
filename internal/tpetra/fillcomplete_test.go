package tpetra

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/sparse"
)

// fillCompleteTwoPass is FillComplete as it was before the column renumber
// went in place: ownership through Owner/GlobalToLocal, the renumbered
// entries rebuilt as a second COO and converted by a second ToCSR. It is
// the oracle TestFillCompleteMatchesTwoPassOracle holds FillComplete to,
// bit for bit, as cgClassic is for CG.
func fillCompleteTwoPass(a *CrsMatrix) {
	a.building = false
	me := a.c.Rank()
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
			_, local := a.rowMap.GlobalToLocal(row)
			a.coo.Add(local, inCols[r][k], inVals[r][k])
		}
	}
	globalCSR := a.coo.ToCSR()
	a.coo = nil
	a.nOwned = a.rowMap.LocalCount(me)

	ghostSet := make(map[int]bool)
	for _, g := range globalCSR.ColIdx {
		if a.rowMap.Owner(g) != me {
			ghostSet[g] = true
		}
	}
	a.ghost = make([]int, 0, len(ghostSet))
	for g := range ghostSet {
		a.ghost = append(a.ghost, g)
	}
	sort.Ints(a.ghost)
	ghostPos := make(map[int]int, len(a.ghost))
	for k, g := range a.ghost {
		ghostPos[g] = k
	}
	a.colGlobals = make([]int, a.nOwned+len(a.ghost))
	for l := 0; l < a.nOwned; l++ {
		a.colGlobals[l] = a.rowMap.LocalToGlobal(me, l)
	}
	copy(a.colGlobals[a.nOwned:], a.ghost)

	localCols := make([]int, len(globalCSR.ColIdx))
	for k, g := range globalCSR.ColIdx {
		if a.rowMap.Owner(g) == me {
			_, l := a.rowMap.GlobalToLocal(g)
			localCols[k] = l
		} else {
			localCols[k] = a.nOwned + ghostPos[g]
		}
	}
	coo := sparse.NewCOO(a.nOwned, a.nOwned+len(a.ghost))
	for i := 0; i < globalCSR.Rows; i++ {
		for k := globalCSR.RowPtr[i]; k < globalCSR.RowPtr[i+1]; k++ {
			coo.Add(i, localCols[k], globalCSR.Val[k])
		}
	}
	a.local = coo.ToCSR()
	if sparse.ChooseFormat(a.local) == sparse.FormatSELL {
		a.sell = sparse.NewSELL(a.local)
	}
	a.plan = NewGatherPlan(a.c, a.rowMap, a.ghost)
	a.xFull = make([]float64, a.nOwned+len(a.ghost))
}

// oracleMap draws one of the map kinds FillComplete must handle: block
// with n a multiple of p and not, cyclic, block-cyclic, arbitrary.
func oracleMap(rng *rand.Rand, p int) (string, *distmap.Map) {
	n := 1 + rng.Intn(48)
	switch rng.Intn(5) {
	case 0:
		n = p * (1 + rng.Intn(12))
		return "block-even", distmap.NewBlock(n, p)
	case 1:
		return "block", distmap.NewBlock(n, p)
	case 2:
		return "cyclic", distmap.NewCyclic(n, p)
	case 3:
		return "block-cyclic", distmap.NewBlockCyclic(n, p, 1+rng.Intn(4))
	default:
		owners := make([]int, n)
		for g := range owners {
			owners[g] = rng.Intn(p)
		}
		return "arbitrary", distmap.NewArbitrary(owners, p)
	}
}

// TestFillCompleteMatchesTwoPassOracle: over P = 1-4 and every map kind,
// with unsorted insertion, duplicates, rows of 16 and more distinct columns
// (sortRowPairs' quicksort branch, on both sorts) and contributions to rows
// other ranks own, FillComplete builds what the two-pass oracle builds:
// the same local rows bit for bit (read through the one copy FillComplete
// keeps — the SELL when it picks SELL, else the CSR, in no larger arrays),
// ghost list, column globals and SELL choice, and Apply gives the same
// output bits. Exactly one local format survives FillComplete. One case in
// four is banded — at least 32 rows of five entries on every rank — so the
// format selector picks SELL and the rows are read back through ToCSR.
func TestFillCompleteMatchesTwoPassOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		kind, m := oracleMap(rng, p)
		banded := rng.Intn(4) == 0
		if banded {
			kind, m = "banded block", distmap.NewBlock(p*(32+rng.Intn(32)), p)
			if rng.Intn(2) == 0 {
				kind, m = "banded cyclic", distmap.NewCyclic(m.NumGlobal(), p)
			}
		}
		n := m.NumGlobal()
		foreign := rng.Intn(3) > 0
		err := comm.Run(p, func(c *comm.Comm) error {
			me := c.Rank()
			r := rand.New(rand.NewSource(seed ^ int64(me+1)*7_919))
			a, b := NewCrsMatrix(c, m), NewCrsMatrix(c, m)
			insert := func(row, col int, v float64) {
				a.InsertGlobal(row, col, v)
				b.InsertGlobal(row, col, v)
			}
			for l := m.LocalCount(me) - 1; l >= 0; l-- { // rows in reverse
				g := m.LocalToGlobal(me, l)
				if banded { // columns g-2 .. g+2 (mod n) in a shuffled order, the diagonal twice
					for _, d := range append(r.Perm(5), 2) {
						insert(g, (g+n+d-2)%n, r.NormFloat64())
					}
				} else {
					width := 1 + r.Intn(6)
					if r.Intn(4) == 0 {
						width = 16 + r.Intn(24) // long row: quicksort branch
					}
					for k := 0; k < width; k++ {
						col := r.Intn(n)
						if k%5 == 4 {
							col = g // repeated diagonal: duplicates to merge
						}
						insert(g, col, r.NormFloat64())
					}
				}
			}
			if foreign {
				for k := r.Intn(3 * n); k > 0; k-- {
					row := r.Intn(n)
					col := row // banded: a duplicate, so every row keeps its five entries
					if !banded {
						col = r.Intn(n)
					}
					insert(row, col, r.NormFloat64())
				}
			}
			a.FillComplete()
			fillCompleteTwoPass(b)

			x := NewVector(c, m)
			x.FillFromGlobal(func(g int) float64 { return math.Sin(float64(3*g + 1)) })
			ya, yb := NewVector(c, m), NewVector(c, m)
			a.Apply(x, ya)
			b.Apply(x, yb)

			switch {
			case (a.local == nil) != (a.sell != nil):
				return fmt.Errorf("rank %d: FillComplete kept CSR %v and SELL %v, want exactly one", me, a.local != nil, a.sell != nil)
			case !sameCSRBits(a.localCSR(), b.local):
				return fmt.Errorf("rank %d: local rows differ: %v vs %v", me, a.localCSR(), b.local)
			case !reflect.DeepEqual(a.ghost, b.ghost):
				return fmt.Errorf("rank %d: ghosts %v, oracle %v", me, a.ghost, b.ghost)
			case !reflect.DeepEqual(a.colGlobals, b.colGlobals):
				return fmt.Errorf("rank %d: colGlobals %v, oracle %v", me, a.colGlobals, b.colGlobals)
			case a.nOwned != b.nOwned || (a.sell == nil) != (b.sell == nil) || len(a.xFull) != len(b.xFull):
				return fmt.Errorf("rank %d: nOwned %d/%d, SELL %v/%v", me, a.nOwned, b.nOwned, a.sell != nil, b.sell != nil)
			case a.local != nil && (cap(a.local.ColIdx) > cap(b.local.ColIdx) || cap(a.local.Val) > cap(b.local.Val)):
				return fmt.Errorf("rank %d: kept CSR capacity %d, oracle %d", me, cap(a.local.Val), cap(b.local.Val))
			}
			for k := range ya.Data {
				if math.Float64bits(ya.Data[k]) != math.Float64bits(yb.Data[k]) {
					return fmt.Errorf("rank %d: Apply output %d: %v, oracle %v", me, k, ya.Data[k], yb.Data[k])
				}
			}
			return nil
		})
		if err != nil {
			t.Logf("seed %d, P=%d, %s map, n=%d, foreign rows %v: %v", seed, p, kind, n, foreign, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sameCSRBits(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !reflect.DeepEqual(a.RowPtr, b.RowPtr) ||
		!reflect.DeepEqual(a.ColIdx, b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}
