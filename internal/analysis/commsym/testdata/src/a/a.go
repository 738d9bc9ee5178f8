// Package a exercises commsym: collectives under rank-dependent control
// flow are flagged; symmetric calls, error-abort guards, subcommunicator
// collectives, point-to-point asymmetry, and //lint:allow exceptions stay
// quiet.
package a

import (
	"errors"

	"comm"
)

const watchdogTag = 404

func direct(c *comm.Comm, buf []float64) {
	c.Barrier() // symmetric on every rank: fine
	if c.Rank() == 0 {
		c.Barrier() // want `rank-dependent`
	}
	if c.Rank() != 0 {
		comm.Bcast(c, 0, buf) // want `rank-dependent`
	}
}

func taintFlows(c *comm.Comm) {
	r := c.Rank()
	isRoot := r == 0
	if isRoot {
		comm.AllreduceScalar(c, 1, comm.OpSum) // want `rank-dependent`
	}
	switch r % 2 {
	case 0:
		c.Barrier() // want `rank-dependent`
	}
}

func earlyReturn(c *comm.Comm) {
	if c.Rank() == 0 {
		return // control return: the other ranks diverge below
	}
	c.Barrier() // want `rank-dependent`
}

func errorAbort(c *comm.Comm) error {
	if c.Rank() < 0 {
		return errors.New("bad rank") // abort path, not divergence
	}
	c.Barrier() // happy path reached by every non-failing rank: fine
	return nil
}

func subcommunicator(c *comm.Comm) {
	sub := c.Split(c.Rank()%2, 0)
	if c.Rank()%2 == 0 {
		comm.AllreduceScalar(sub, 1, comm.OpSum) // subgroup collective: fine
		sub.Barrier()                            // fine
	}
	if c.Rank() == 0 {
		c.Split(0, 0) // want `rank-dependent`
	}
}

func allowed(c *comm.Comm) {
	if c.Rank() == 0 {
		//lint:allow commsym deliberate: rank 0 tears down the session alone
		c.Barrier()
	}
}

// transportGuard branches on the transport name. Every rank of a session
// runs the same transport, so the guard is uniform across ranks — not
// rank-derived taint — and collectives under it stay symmetric. This is the
// negative control for transport-conditional code paths (e.g. demos that
// print differently over tcp): commsym must stay quiet.
func transportGuard(c *comm.Comm, buf []float64) {
	if c.Transport() == "tcp" {
		c.Barrier() // uniform guard: fine
		comm.Bcast(c, 0, buf)
	}
}

// watchdogShape mirrors the PR-2 Recv-watchdog self-deadlock scenario: the
// last rank waits on a tag nobody sends while its peers block on the stuck
// rank. Asymmetric point-to-point receives under rank guards are exactly
// how that regression test is written, and Recv is not a collective —
// commsym must stay quiet here.
func watchdogShape(c *comm.Comm) {
	if c.Rank() == c.Size()-1 {
		c.Recv(comm.AnySource, watchdogTag)
	} else {
		c.Recv(c.Size()-1, watchdogTag)
	}
}

func typedCollectives(c *comm.Comm, buf []float64, idx [][]int) {
	comm.AllreduceInto(c, buf, comm.OpSum)      // symmetric: fine
	comm.AlltoallIndexed(c, buf, idx, buf, idx) // symmetric: fine
	if c.Rank() == 0 {
		comm.AllreduceInto(c, buf, comm.OpSum) // want `rank-dependent`
	} else {
		comm.AlltoallIndexed(c, buf, idx, buf, idx) // want `rank-dependent`
	}
}
