// Package a exercises p2pmatch's core protocol shapes: certified-safe
// rings, deadlocking rings, unmatched and lost messages, send/receive count
// mismatches, tag-selective receives, collective divergence, and the
// cannot-certify fragment boundary.
package a

import "comm"

// ringSendRecv is the canonical safe ring: SendRecv posts its send before
// blocking in the receive, so the ring can never rendezvous-deadlock.
// Certified for every P — a negative control.
func ringSendRecv(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	next := (r + 1) % p
	prev := (r + p - 1) % p
	got := c.SendRecv(next, r, prev, 7)
	_ = got
	return nil
}

// ringParity splits the ring by parity: even ranks send first, odd ranks
// receive first. Certified for every even P — a negative control.
func ringParity(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 || p%2 != 0 {
		return nil
	}
	next := (r + 1) % p
	prev := (r + p - 1) % p
	if r%2 == 0 {
		c.Send(next, 3, r)
		_ = c.Recv(prev, 3)
	} else {
		_ = c.Recv(prev, 3)
		c.Send(next, 3, r)
	}
	return nil
}

// ringRecvFirst is the symmetric deadlock: every rank receives before it
// sends, so nobody's send is ever issued.
func ringRecvFirst(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return nil
	}
	prev := (r + p - 1) % p
	next := (r + 1) % p
	got := c.Recv(prev, 3) // want `rendezvous cycle \(rank 0 waits for rank 1, rank 1 waits for rank 0\)`
	c.Send(next, 3, got)
	return nil
}

// orphanRecv blocks forever: rank 1 sends tag 8, but no rank ever sends
// the tag 9 rank 0 waits for.
func orphanRecv(c *comm.Comm) error {
	if c.Rank() == 1 {
		c.Send(0, 8, nil)
	}
	if c.Rank() == 0 && c.Size() > 1 {
		_ = c.Recv(1, 9) // want `unmatched receive`
	}
	return nil
}

// chattySender sends twice into a single receive; the second message is
// never consumed in any schedule.
func chattySender(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return nil
	}
	if r == 1 {
		c.Send(0, 11, r)
		c.Send(0, 11, r) // want `lost message at P=2`
	}
	if r == 0 {
		_ = c.Recv(1, 11)
	}
	return nil
}

// recvTwiceSendOnce posts two receives against one send: the second finds
// the only matching message already consumed.
func recvTwiceSendOnce(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return nil
	}
	if r == 1 {
		c.Send(0, 5, r)
	}
	if r == 0 {
		_ = c.Recv(1, 5)
		_ = c.Recv(1, 5) // want `send/receive count mismatch`
	}
	return nil
}

// tagSkip receives in the opposite tag order from the sends: the tag-1
// receive skips the older tag-2 message, which stays queued for the next
// receive. Certified for every P — a negative control.
func tagSkip(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return nil
	}
	if r == 1 {
		c.Send(0, 2, r)
		c.Send(0, 1, r)
	}
	if r == 0 {
		_ = c.Recv(1, 1)
		_ = c.Recv(1, 2)
	}
	return nil
}

// lostThenUnmatched loses a message at P=2 and blocks forever at P=3. A
// lost message is reported only for a protocol that completes at every
// size, so the deadlock is the one finding.
func lostThenUnmatched(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if r == 1 {
		c.Send(0, 12, r)
	}
	if r == 0 && p > 2 {
		_ = c.Recv(2, 13) // want `deadlock at P=3: .*unmatched receive`
	}
	return nil
}

// divergentBarrier: rank 0 waits at a collective rank 1 never reaches.
func divergentBarrier(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return nil
	}
	if r == 0 {
		c.Send(1, 2, r)
		c.Barrier() // want `collective/point-to-point divergence`
	}
	if r == 1 {
		_ = c.Recv(0, 2)
	}
	return nil
}

// dataPeer's destination is a run-time value: outside the provable shape.
func dataPeer(c *comm.Comm, target int) {
	c.Send(target, 1, nil) // want `cannot certify point-to-point protocol: .*non-affine`
}

// probeDrain polls the mailbox; matching depends on arrival timing.
func probeDrain(c *comm.Comm) error {
	if c.Rank() != 0 {
		c.Send(0, 9, 1)
		return nil
	}
	for {
		if _, ok := c.Probe(comm.AnySource, comm.AnyTag); !ok { // want `cannot certify point-to-point protocol: Probe-guarded`
			break
		}
		_ = c.Recv(comm.AnySource, comm.AnyTag)
	}
	return nil
}

// configFork picks its tag from a run-time flag. The flag is the same on
// every rank, but the protocol would fork on it: outside the fragment one
// replay certifies.
func configFork(c *comm.Comm, fast bool) error {
	r, p := c.Rank(), c.Size()
	next := (r + 1) % p
	prev := (r + p - 1) % p
	if fast { // want `cannot certify point-to-point protocol: run-time condition`
		_ = c.SendRecv(next, r, prev, 1)
	} else {
		_ = c.SendRecv(next, r, prev, 2)
	}
	return nil
}

// modeSwitch is configFork's switch form: the unresolvable case is the
// finding.
func modeSwitch(c *comm.Comm, mode int) error {
	r, p := c.Rank(), c.Size()
	switch mode {
	case 0: // want `cannot certify point-to-point protocol: switch on a run-time value`
		_ = c.SendRecv((r+1)%p, r, (r+p-1)%p, 1)
	}
	return nil
}

// launch runs a known-size ping-pong protocol literal; only P=2 is
// checked, and it is safe — a negative control.
func launch() {
	_ = comm.Run(2, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, 0)
			_ = c.Recv(1, 2)
		} else {
			_ = c.Recv(0, 1)
			c.Send(0, 2, 1)
		}
		return nil
	})
}

// badPeer sends outside a constant-size communicator: a definite panic.
func badPeer() {
	_ = comm.Run(2, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			c.Send(5, 1, 0) // want `Send peer 5 is outside the communicator \(size 2\)`
		}
		return nil
	})
}
