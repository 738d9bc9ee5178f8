// Package comm is a miniature mirror of the real comm fabric: just enough
// surface for p2pmatch to recognize ranks, point-to-point primitives,
// collectives, and protocol launches. The analyzer matches packages by
// path suffix, so this fake exercises the same code paths as the real
// tree.
package comm

// AnySource matches any sending rank.
const AnySource = -1

// AnyTag matches any message tag.
const AnyTag = -1

// Message mirrors the real delivery envelope.
type Message struct {
	Src, Tag int
	Payload  any
}

// Comm is the fake communicator.
type Comm struct {
	rank, size int
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// Transport names the wire implementation — identical on every rank.
func (c *Comm) Transport() string { return "inproc" }

// Barrier is a collective.
func (c *Comm) Barrier() {}

// Split is a collective returning a subcommunicator.
func (c *Comm) Split(color, key int) *Comm { return c }

// Send is the eager point-to-point send.
func (c *Comm) Send(dst, tag int, payload any) {}

// Recv is the blocking point-to-point receive.
func (c *Comm) Recv(src, tag int) any { return nil }

// RecvMsg is Recv returning the full envelope.
func (c *Comm) RecvMsg(src, tag int) Message { return Message{} }

// SendRecv sends to dst then receives from src.
func (c *Comm) SendRecv(dst int, payload any, src, tag int) any { return nil }

// Probe reports without blocking whether a matching message is queued.
func (c *Comm) Probe(src, tag int) (Message, bool) { return Message{}, false }

// Run launches fn on size ranks, the protocol-scope entry point.
func Run(size int, fn func(c *Comm) error) error { return nil }

// Bcast is a package-level collective (first param *Comm).
func Bcast(c *Comm, root int, buf []float64) {}

// sendFloats, sendIndexed and recvIndexed mirror the typed float64 path
// under the real collectives: unexported point-to-point primitives whose
// callers all live in package comm.
func (c *Comm) sendFloats(dst, tag int, data []float64) {}

func (c *Comm) sendIndexed(dst, tag int, src []float64, idx []int) {}

func (c *Comm) recvIndexed(src, tag int, out []float64, pos []int) {}

// typedRing is a typed exchange in the safe order — eager send, then
// receive — certified like its boxed twin (a negative control).
func typedRing(c *Comm, buf []float64, idx []int) {
	r, p := c.Rank(), c.Size()
	c.sendFloats((r+1)%p, 11, buf)
	c.recvIndexed((r+p-1)%p, 11, buf, idx)
}

// typedRecvFirst receives before it sends on every rank: the typed path is
// modeled, so the rendezvous cycle is found, not invisible.
func typedRecvFirst(c *Comm, buf []float64, idx []int) {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return
	}
	c.recvIndexed((r+p-1)%p, 12, buf, idx) // want `rendezvous cycle \(rank 0 waits for rank 1, rank 1 waits for rank 0\)`
	c.sendIndexed((r+1)%p, 12, buf, idx)
}
