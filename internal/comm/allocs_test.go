package comm_test

import (
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
)

// TestAllreduceAllocs pins the pooled route: a scalar allreduce allocates
// nothing at steady state, at any rank count — not per round, not per
// message — whether the caller supplies the buffer (AllreduceInto) or the
// value (AllreduceScalar).
func TestAllreduceAllocs(t *testing.T) {
	const runs = 1000
	for _, p := range []int{2, 4, 8} {
		into := alloctest.Mallocs(t, p, runs, func(c *comm.Comm) func() {
			buf := make([]float64, 1)
			return func() {
				buf[0] = float64(c.Rank())
				comm.AllreduceInto(c, buf, comm.OpSum)
			}
		})
		if got := into / runs; got != 0 {
			t.Errorf("P=%d: AllreduceInto allocates %d objects per call (all ranks), want 0", p, got)
		}
		scalar := alloctest.Mallocs(t, p, runs, func(c *comm.Comm) func() {
			return func() { comm.AllreduceScalar(c, float64(c.Rank()), comm.OpMax) }
		})
		if got := scalar / runs; got != 0 {
			t.Errorf("P=%d: AllreduceScalar allocates %d objects per call (all ranks), want 0", p, got)
		}
	}
}
