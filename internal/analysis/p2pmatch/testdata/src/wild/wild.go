// Package wild exercises AnySource/AnyTag wildcard receives: a token pool
// that completes under every schedule, a receive-count mismatch, and a
// wildcard beside a collective. Which pending message a wildcard takes
// depends on arrival order, so one replay cannot stand for every schedule:
// each is a cannot-certify finding at the receive.
package wild

import "comm"

// tokenPool collects one token per worker with a wildcard source.
func tokenPool(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if r == 0 {
		for i := 1; i < p; i++ {
			_ = c.Recv(comm.AnySource, 5) // want `cannot certify point-to-point protocol: wildcard receive`
		}
		return nil
	}
	c.Send(0, 5, r)
	return nil
}

// tokenPoolOffByOne posts one more receive than there are workers.
func tokenPoolOffByOne(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return nil
	}
	if r == 0 {
		for i := 0; i < p; i++ {
			_ = c.Recv(comm.AnySource, 5) // want `cannot certify point-to-point protocol: wildcard receive`
		}
		return nil
	}
	c.Send(0, 5, r)
	return nil
}

// wildBarrier mixes a wildcard receive with a collective.
func wildBarrier(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	if p < 2 {
		return nil
	}
	if r == 1 {
		c.Send(0, 8, r)
	}
	if r == 0 {
		_ = c.Recv(comm.AnySource, 8) // want `cannot certify point-to-point protocol: wildcard receive`
	}
	comm.Bcast(c, 0, nil)
	return nil
}
