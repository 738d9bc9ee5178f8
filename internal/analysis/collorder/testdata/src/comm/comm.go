// Package comm is a miniature mirror of the real comm fabric: just enough
// surface for commsym to recognize ranks, collectives, subcommunicators,
// and point-to-point calls. The analyzer matches packages by path suffix,
// so this fake exercises the same code paths as the real tree.
package comm

// Op mirrors the reduction operator enum.
type Op int

// OpSum is the only operator the tests need.
const OpSum Op = 0

// AnySource matches any sending rank.
const AnySource = -1

// Comm is the fake communicator.
type Comm struct {
	rank, size int
}

// Rank returns this rank's index — the taint source.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// Transport names the wire implementation — identical on every rank, so
// unlike Rank it is not a taint source.
func (c *Comm) Transport() string { return "inproc" }

// Barrier is a collective.
func (c *Comm) Barrier() {}

// Split is a collective returning a subcommunicator.
func (c *Comm) Split(color, key int) *Comm { return c }

// Send is point-to-point, not a collective.
func (c *Comm) Send(dst, tag int, data any) {}

// Recv is point-to-point, not a collective.
func (c *Comm) Recv(src, tag int) any { return nil }

// Bcast is a package-level collective (first param *Comm).
func Bcast(c *Comm, root int, buf []float64) {}

// AllreduceScalar is a package-level collective.
func AllreduceScalar(c *Comm, v int, op Op) int { return v }

// Gather is a package-level collective.
func Gather(c *Comm, root int, buf []float64) [][]float64 { return nil }

// AllreduceInto is the in-place typed allreduce: a package-level collective.
func AllreduceInto(c *Comm, buf []float64, op Op) {}

// AlltoallIndexed is the indexed float64 exchange: a package-level collective.
func AlltoallIndexed(c *Comm, src []float64, sendIdx [][]int, out []float64, recvPos [][]int) {}
