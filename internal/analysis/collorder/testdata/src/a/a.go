// Package a exercises collorder: sibling branches issuing the same
// collectives in permuted order are flagged; identical orders, different
// collective sets, disjoint-subgroup communicators, function literals, and
// //lint:allow exceptions stay quiet.
package a

import (
	"comm"
)

func permutedIfElse(c *comm.Comm, buf []float64) {
	if c.Rank()%2 == 0 {
		comm.Bcast(c, 0, buf)
		comm.Gather(c, 0, buf)
	} else {
		comm.Gather(c, 0, buf) // want `collective sequence diverges`
		comm.Bcast(c, 0, buf)
	}
}

func sameOrderBothArms(c *comm.Comm, buf []float64) {
	// Permutation-free branches are commsym's business, not collorder's.
	if c.Rank() == 0 {
		comm.Bcast(c, 0, buf)
		comm.Gather(c, 0, buf)
	} else {
		comm.Bcast(c, 0, buf)
		comm.Gather(c, 0, buf)
	}
}

func differentMultisets(c *comm.Comm, buf []float64) {
	// Different collective sets are asymmetric reachability (commsym), not
	// a permutation; stay quiet.
	if c.Rank() == 0 {
		comm.Bcast(c, 0, buf)
		comm.Gather(c, 0, buf)
	} else {
		c.Barrier()
		comm.Bcast(c, 0, buf)
	}
}

func singleCollectivePerArm(c *comm.Comm, buf []float64) {
	// One call per arm has no order to disagree on.
	if c.Rank() == 0 {
		comm.Bcast(c, 0, buf)
	} else {
		comm.Gather(c, 0, buf)
	}
}

func disjointSubgroups(c *comm.Comm, buf []float64) {
	// Split with a rank-derived color builds disjoint subgroups: even and
	// odd ranks each run their own order against their own peers. Exempt.
	sub := c.Split(c.Rank()%2, 0)
	if c.Rank()%2 == 0 {
		comm.Bcast(sub, 0, buf)
		comm.Gather(sub, 0, buf)
	} else {
		comm.Gather(sub, 0, buf)
		comm.Bcast(sub, 0, buf)
	}
}

func uniformColorSubcomm(c *comm.Comm, buf []float64) {
	// A rank-independent color puts every rank in one subgroup, so a
	// permuted order deadlocks it like any communicator — this is the case
	// commsym's blanket Split exemption cannot see.
	sub := c.Split(1, 0)
	if c.Rank()%2 == 0 {
		comm.Bcast(sub, 0, buf)
		comm.Gather(sub, 0, buf)
	} else {
		comm.Gather(sub, 0, buf) // want `collective sequence diverges`
		comm.Bcast(sub, 0, buf)
	}
}

func permutedSwitch(c *comm.Comm, buf []float64) {
	switch c.Rank() % 3 {
	case 0:
		c.Barrier()
		comm.Bcast(c, 0, buf)
	case 1:
		comm.Bcast(c, 0, buf) // want `collective sequence diverges`
		c.Barrier()
	}
}

func chainThirdArmPermuted(c *comm.Comm, buf []float64, mode int) {
	if mode == 0 {
		comm.Bcast(c, 0, buf)
		c.Barrier()
	} else if mode == 1 {
		comm.Bcast(c, 0, buf)
		c.Barrier()
	} else {
		c.Barrier() // want `collective sequence diverges`
		comm.Bcast(c, 0, buf)
	}
}

func funcLitNotExecutedHere(c *comm.Comm, buf []float64) []func() {
	// Function literals run where they are called; defining permuted
	// closures is not a permuted execution.
	var fns []func()
	if c.Rank() == 0 {
		fns = append(fns, func() { comm.Bcast(c, 0, buf) }, func() { comm.Gather(c, 0, buf) })
	} else {
		fns = append(fns, func() { comm.Gather(c, 0, buf) }, func() { comm.Bcast(c, 0, buf) })
	}
	return fns
}

func allowed(c *comm.Comm, buf []float64) {
	if c.Rank()%2 == 0 {
		comm.Bcast(c, 0, buf)
		comm.Gather(c, 0, buf)
	} else {
		comm.Gather(c, 0, buf) //lint:allow collorder deliberate permutation under test
		comm.Bcast(c, 0, buf)
	}
}

func distinctComms(c, d *comm.Comm, buf []float64) {
	// Cross-communicator inversion: each communicator's own subsequence is
	// consistent, but MPI (and this fabric) require collectives on
	// different communicators in the same order everywhere — a rank blocked
	// inside c's Bcast never enters d's, and vice versa.
	if c.Rank() == 0 {
		comm.Bcast(c, 0, buf)
		comm.Bcast(d, 0, buf)
	} else {
		comm.Bcast(d, 0, buf) // want `collective sequence diverges`
		comm.Bcast(c, 0, buf)
	}
}

func permutedTypedCollectives(c *comm.Comm, buf []float64, idx [][]int) {
	// The in-place allreduce and the indexed exchange are collectives like
	// any other: a halo-then-reduce iteration permuted across ranks deadlocks.
	if c.Rank()%2 == 0 {
		comm.AlltoallIndexed(c, buf, idx, buf, idx)
		comm.AllreduceInto(c, buf, comm.OpSum)
	} else {
		comm.AllreduceInto(c, buf, comm.OpSum) // want `collective sequence diverges`
		comm.AlltoallIndexed(c, buf, idx, buf, idx)
	}
}
