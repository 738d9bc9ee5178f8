package distmap_test

// Chaos conformance of distributed map construction: the ownership-census
// pattern (each rank contributes its owned globals, the full table is
// rebuilt collectively) must survive comm-fabric perturbation bitwise or
// fail with a typed comm.FaultError.

import (
	"fmt"
	"sort"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
	"odinhpc/internal/distmap"
)

func TestChaosOwnershipCensus(t *testing.T) {
	const n = 41
	kernels := []chaostest.Kernel{
		{Name: "census-cyclic", Body: func(c *comm.Comm) (any, error) {
			base := distmap.NewCyclic(n, c.Size())
			lists := comm.Allgather(c, base.GlobalsOn(c.Rank()))
			owners := make([]int, n)
			for r, globals := range lists {
				for _, g := range globals {
					owners[g] = r
				}
			}
			rebuilt := distmap.NewArbitrary(owners, c.Size())
			if !rebuilt.SameAs(base) {
				return nil, fmt.Errorf("rebuilt map differs from cyclic source")
			}
			total := comm.AllreduceScalar(c, rebuilt.LocalCount(c.Rank()), comm.OpSum)
			if total != n {
				return nil, fmt.Errorf("census counted %d globals, want %d", total, n)
			}
			return rebuilt.OwnersTable(), nil
		}},
		{Name: "census-blockcyclic-subset", Body: func(c *comm.Comm) (any, error) {
			base := distmap.NewBlockCyclic(n, c.Size(), 3)
			// Exchange per-rank counts over the wire and cross-check them
			// against the map's own bookkeeping.
			counts := comm.AllgatherFlat(c, []int{base.LocalCount(c.Rank())})
			for r, cnt := range counts {
				if cnt != base.LocalCount(r) {
					return nil, fmt.Errorf("rank %d count %d, map says %d", r, cnt, base.LocalCount(r))
				}
			}
			// The even globals, renumbered densely, keep their owners.
			var owners []int
			for g := 0; g < n; g += 2 {
				owners = append(owners, base.Owner(g))
			}
			sub := distmap.NewArbitrary(owners, c.Size())
			for r := 0; r < c.Size(); r++ {
				if !sort.IntsAreSorted(sub.GlobalsOn(r)) {
					return nil, fmt.Errorf("globals on rank %d not sorted", r)
				}
			}
			// One roundtrip through the fabric for the subset's table too.
			table := comm.BcastScalar(c, 0, sub.NumGlobal())
			if table != len(owners) {
				return nil, fmt.Errorf("subset size %d, want %d", table, len(owners))
			}
			return append(sub.OwnersTable(), counts...), nil
		}},
	}
	chaostest.Run(t, []int{1, 2, 4}, 2025, kernels...)
}
