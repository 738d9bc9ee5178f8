// Package comm mirrors the point-to-point tag surface of the real fabric:
// the five tag-taking methods tagcheck keys on, plus constants living in
// comm's reserved negative range.
package comm

// AnyTag matches any tag on the receive side; it sits inside comm's
// reserved negative range, which is fine when declared by the owner.
const AnyTag = -1

// Comm is the fake communicator.
type Comm struct{}

// Send delivers data to dst under tag.
func (c *Comm) Send(dst, tag int, data any) {}

// Recv blocks for a message from src with tag.
func (c *Comm) Recv(src, tag int) any { return nil }

// RecvMsg is Recv with the full envelope.
func (c *Comm) RecvMsg(src, tag int) any { return nil }

// Probe reports whether a matching message is queued.
func (c *Comm) Probe(src, tag int) bool { return false }

// SendRecv exchanges payloads; the tag is the fourth argument.
func (c *Comm) SendRecv(dst int, data any, src, tag int) any { return nil }

// sendFloats, sendIndexed and recvIndexed mirror the typed float64 path the
// collectives ride; only package comm can call them.
func (c *Comm) sendFloats(dst, tag int, data []float64) {}

func (c *Comm) sendIndexed(dst, tag int, src []float64, idx []int) {}

func (c *Comm) recvIndexed(src, tag int, out []float64, pos []int) {}

// collTag mirrors the run-time tag namespace of one collective round.
func collTag(seq, round int) int { return -(seq<<8 | round) - 1000 }

// typedExchange is the shape of a typed collective: run-time tags are fine,
// a literal on the typed path is flagged like on the boxed one.
func typedExchange(c *Comm, seq int, buf []float64, idx []int) {
	c.sendFloats(1, collTag(seq, 0), buf)
	c.sendIndexed(1, collTag(seq, 0), buf, idx)
	c.recvIndexed(0, collTag(seq, 0), buf, idx)
	c.sendFloats(1, 7, buf)       // want `raw integer message tag`
	c.sendIndexed(1, 8, buf, idx) // want `raw integer message tag`
	c.recvIndexed(0, 9, buf, idx) // want `raw integer message tag`
}
