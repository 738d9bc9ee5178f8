// Package comm mirrors the transport ownership contract planreuse guards:
// a tcp connection's outbox and write buffer belong to exactly one writer
// goroutine (and its inbound stream to exactly one reader). The sanctioned
// shape — spawning the loop that owns the connection from then on — carries
// a lint:allow at the launch site, exactly like the real transport's
// tcpEndpoint.start; ad-hoc goroutines pushing frames on a shared
// connection are flagged.
package comm

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
