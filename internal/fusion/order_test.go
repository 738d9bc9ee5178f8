package fusion

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/exec"
	"odinhpc/internal/tpetra"
	"odinhpc/internal/ufunc"
)

// TestOneSummationOrder: a sum or a dot is the same bits whichever API
// reaches it. The fused SumEval(x*y), ODIN's ufunc.Dot(x, y) and tpetra's
// Vector.Dot over the same local data agree bit for bit, and so do
// SumEval(x) and ufunc.Sum(x), on every pair of the property suite's leaves
// (specialLeaf's NaNs and infinities included), at pools 1/4/7 and P =
// 1/2/4 on one block distribution, at lengths around one VM block, across
// several blocks with a ragged tail, and across several exec chunks.
func TestOneSummationOrder(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	for _, w := range []int{1, 4, 7} {
		exec.SetDefault(exec.New(exec.WithWorkers(w)))
		for _, p := range []int{1, 2, 4} {
			err := comm.Run(p, func(c *comm.Comm) error {
				ctx := core.NewContext(c)
				ctx.SetControlMessages(false)
				lengths := [...]int{1023, 1024, 1025, 3*1024 + 17, 4*exec.DefaultGrain + 5}
				for k := range len(lengths) {
					n := lengths[k]
					leaves := propertyLeaves(ctx, n)
					for i := range len(leaves) {
						x := leaves[i]
						fused, odin := SumEval(Var(x)), ufunc.Sum(x)
						if err := sameSum(fused, odin); err != nil {
							return fmt.Errorf("n=%d: SumEval(x%d) vs ufunc.Sum: %v", n, i, err)
						}
						xv := tpetra.WrapVector(c, x.Map(), x.Local().Raw())
						for j := range len(leaves) {
							y := leaves[j]
							yv := tpetra.WrapVector(c, y.Map(), y.Local().Raw())
							fused, odin, tp := SumEval(Var(x).Mul(Var(y))), ufunc.Dot(x, y), xv.Dot(yv)
							if err := sameSum(fused, tp); err != nil {
								return fmt.Errorf("n=%d: SumEval(x%d*x%d) vs tpetra Dot: %v", n, i, j, err)
							}
							if err := sameSum(odin, tp); err != nil {
								return fmt.Errorf("n=%d: ufunc.Dot(x%d, x%d) vs tpetra Dot: %v", n, i, j, err)
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("w=%d/P=%d: %v", w, p, err)
			}
		}
	}
}

func sameSum(got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%x (%g) != %x (%g)", math.Float64bits(got), got, math.Float64bits(want), want)
	}
	return nil
}
