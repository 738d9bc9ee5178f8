// Package comm is the one stub of the real fabric that the analyzers keyed
// on it share (analysistest.RunShared). It mirrors two surfaces:
//
//   - the point-to-point tag surface tagcheck keys on: the generic
//     Send/Recv/RecvMsg functions, the Probe/SendRecv methods, and constants
//     living in comm's reserved negative range;
//   - the transport ownership contract planreuse guards: a tcp connection's
//     outbox and write buffer belong to exactly one writer goroutine (and
//     its inbound stream to exactly one reader). The sanctioned shape —
//     spawning the loop that owns the connection from then on — carries a
//     lint:allow at the launch site, exactly like the real transport's
//     tcpEndpoint.start; ad-hoc goroutines pushing frames on a shared
//     connection are flagged.
package comm

// AnyTag matches any tag on the receive side; it sits inside comm's
// reserved negative range, which is fine when declared by the owner.
const AnyTag = -1

// Comm is the fake communicator.
type Comm struct{}

// Elem is the wire payload set.
type Elem interface {
	float64 | int | byte
}

// Send delivers data to dst under tag; the tag is the third argument.
func Send[T Elem](c *Comm, dst, tag int, data []T) {}

// Recv blocks for a message from src with tag.
func Recv[T Elem](c *Comm, src, tag int) []T { return nil }

// RecvMsg is Recv that also returns the source and the tag.
func RecvMsg[T Elem](c *Comm, src, tag int) (int, int, []T) { return 0, 0, nil }

// Probe reports whether a matching message is queued.
func (c *Comm) Probe(src, tag int) bool { return false }

// SendRecv exchanges buf in place; the tag is the fourth argument.
func (c *Comm) SendRecv(dst int, buf []float64, src, tag int) {}

// collKind names a collective in its tags.
type collKind int

const collAllreduce collKind = 4

// collTag mirrors the run-time tag namespace of one collective round.
func collTag(k collKind, root, seq, round int) int {
	return -((seq&(1<<27-1))<<36 | int(k)<<32 | root<<16 | round) - 1000
}

// typedExchange is the shape of a collective inside comm: run-time tags are
// fine, a literal is flagged on every generic entry, instantiated or not.
func typedExchange(c *Comm, seq int, buf []float64) {
	Send(c, 1, collTag(collAllreduce, 0, seq, 0), buf)
	Recv[float64](c, 0, collTag(collAllreduce, 0, seq, 0))
	RecvMsg[float64](c, 0, collTag(collAllreduce, 0, seq, 0))
	Send(c, 1, 7, buf)          // want `raw integer message tag`
	Send[float64](c, 1, 8, buf) // want `raw integer message tag`
	Recv[float64](c, 0, 9)      // want `raw integer message tag`
}

// tcpConn carries one peer connection: a write buffer reused across frames
// and an outbox drained by a single writer goroutine.
type tcpConn struct {
	wbuf   []byte
	outbox [][]byte
}

func newTCPConn() *tcpConn { return &tcpConn{} }

// push appends one encoded frame to the outbox.
func (tc *tcpConn) push(buf []byte) { tc.outbox = append(tc.outbox, buf) }

// writeLoop drains the outbox; it must be the connection's only writer.
func (tc *tcpConn) writeLoop() { tc.wbuf = tc.wbuf[:0] }

// readLoop demultiplexes inbound frames; it must be the connection's only
// reader.
func (tc *tcpConn) readLoop() {}

// start hands each connection to its owning reader/writer pair — the
// per-peer ownership handoff the transport is built on. The analyzer cannot
// prove the exclusivity, so the launch documents it with an allow, same as
// the real transport.
func start(conns []*tcpConn) {
	for _, tc := range conns {
		go tc.readLoop()  //lint:allow planreuse This goroutine is the conn's sole reader from here on
		go tc.writeLoop() //lint:allow planreuse This goroutine is the conn's sole writer from here on
	}
}

// sharedWriter fans frame pushes out over goroutines that all share one
// connection without a lock: the anti-shape the per-peer ownership rule
// exists to reject.
func sharedWriter(tc *tcpConn, frames [][]byte) {
	for _, f := range frames {
		go func(b []byte) {
			tc.push(b) // want `goroutine-shared`
		}(f)
	}
	go tc.writeLoop() // want `goroutine-shared`

	tc.push(nil) // spawning goroutine's own use: fine

	go func() {
		local := newTCPConn()
		local.push(nil) // goroutine-local connection: fine
		local.writeLoop()
	}()
}
