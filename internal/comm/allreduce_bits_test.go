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

// TestReductionNaNIsFirstQuieted pins the NaN a sum or product reduces to:
// the NaN of the lowest rank that holds one, quieted (its mantissa's top
// bit set, sign and payload kept), from Allreduce at every size and from
// Reduce's binomial tree, in float64 and float32. Each NaN rank holds a
// signalling NaN with its own payload and sign, so a combine that took its
// operands in the other order, or passed a NaN through unquieted, reads
// other bits.
func TestReductionNaNIsFirstQuieted(t *testing.T) {
	nan64 := func(r int) float64 {
		return math.Float64frombits(uint64(r%2)<<63 | 0x7ff0000000000000 | uint64(r+1))
	}
	nan32 := func(r int) float32 {
		return math.Float32frombits(uint32(r%2)<<31 | 0x7f800000 | uint32(r+1))
	}
	for _, p := range []int{2, 3, 4, 5, 8} {
		for first := 0; first < p; first++ {
			err := comm.Run(p, func(c *comm.Comm) error {
				in64, in32 := []float64{1.5, 2}, []float32{1.5, 2}
				if c.Rank() >= first {
					in64[0], in32[1] = nan64(c.Rank()), nan32(c.Rank())
				}
				want64 := math.Float64bits(nan64(first)) | 1<<51
				want32 := math.Float32bits(nan32(first)) | 1<<22
				for _, op := range []comm.Op{comm.OpSum, comm.OpProd} {
					check := func(how string, got64 []float64, got32 []float32) error {
						if b := math.Float64bits(got64[0]); b != want64 {
							return fmt.Errorf("P=%d, NaNs from rank %d, %v %s float64: %#x, want %#x", p, first, op, how, b, want64)
						}
						if b := math.Float32bits(got32[1]); b != want32 {
							return fmt.Errorf("P=%d, NaNs from rank %d, %v %s float32: %#x, want %#x", p, first, op, how, b, want32)
						}
						return nil
					}
					if err := check("Allreduce", comm.Allreduce(c, in64, op), comm.Allreduce(c, in32, op)); err != nil {
						return err
					}
					r64, r32 := comm.Reduce(c, 0, in64, op), comm.Reduce(c, 0, in32, op)
					if c.Rank() == 0 {
						if err := check("Reduce", r64, r32); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
