package comm_test

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
)

// allreduceSpecials is laid out rotated by rank, so that at every position
// some ranks hold NaN, signed zeros and infinities while others hold
// ordinary values: the inputs on which min/max/sum/prod stop being
// commutative bit for bit.
var allreduceSpecials = []float64{
	math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	1.5, -2.25, 1e-300, 1e300, 0.1, -0.1, 3,
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestChaosAllreduceBitwise pins what recursive doubling promises: after an
// Allreduce every rank holds the same bits, for every op, on inputs where
// operand order decides the result — at powers of two, at the sizes that
// fold ranks in and out, on both transports, and under every fault plan
// (bitwise, or a typed failure). At a power of two the bits are also those
// of Reduce's binomial tree, which is what Allreduce used to be built on.
func TestChaosAllreduceBitwise(t *testing.T) {
	kernel := chaostest.Kernel{Name: "allreduce-bits", Body: func(c *comm.Comm) (any, error) {
		n := len(allreduceSpecials)
		in := make([]float64, n)
		for i := range in {
			in[i] = allreduceSpecials[(i+5*c.Rank())%n]
		}
		var all []uint64
		for _, op := range []comm.Op{comm.OpSum, comm.OpProd, comm.OpMin, comm.OpMax} {
			res := comm.Allreduce(c, in, op)
			got := bitsOf(res)
			for r, theirs := range comm.Allgather(c, res) {
				for i, b := range bitsOf(theirs) {
					if b != got[i] {
						return nil, fmt.Errorf("%v: rank %d holds %#x at [%d], rank %d holds %#x",
							op, c.Rank(), got[i], i, r, b)
					}
				}
			}
			if p := c.Size(); p&(p-1) == 0 {
				tree := make([]float64, n)
				copy(tree, comm.Reduce(c, 0, in, op)) // nil off the root
				comm.Bcast(c, 0, tree)
				for i, want := range bitsOf(tree) {
					if got[i] != want {
						return nil, fmt.Errorf("%v at P=%d: [%d] = %#x, the binomial tree gives %#x", op, p, i, got[i], want)
					}
				}
			}
			all = append(all, got...)
		}
		return all, nil
	}}
	sizes := []int{1, 2, 3, 4, 5, 7, 8}
	for _, transport := range []string{"inproc", "tcp"} {
		chaostest.RunOn(t, transport, sizes, 42, kernel)
	}
}
