// Package a exercises tagcheck: raw literal tags and reserved-range
// collisions are flagged; named constants, run-time tags, owner-declared
// reserved constants, and //lint:allow exceptions stay quiet.
package a

import "comm"

// tagPing is the named way to pick a tag.
const tagPing = 7

// haloStolen collides with the halo-exchange reservation owned by slicing.
const haloStolen = 1<<30 + 7

// negCtl collides with comm's reserved negative range but is declared here,
// outside the owning package.
const negCtl = -7

func tags(c *comm.Comm, buf []float64) {
	comm.Send(c, 1, 7, buf)              // want `raw integer message tag`
	comm.Recv[float64](c, 0, (9))        // want `raw integer message tag`
	comm.Send(c, 1, -3, buf)             // want `raw integer message tag`
	c.SendRecv(1, buf, 1, 5)             // want `raw integer message tag`
	comm.RecvMsg[float64](c, 0, int(11)) // want `raw integer message tag`

	comm.Send(c, 1, tagPing, buf)     // named constant: fine
	comm.Recv[float64](c, 0, tagPing) // fine
	for t := 0; t < 3; t++ {
		comm.Send(c, 1, t+tagPing, buf) // run-time tag: fine
	}
	comm.Recv[float64](c, 0, comm.AnyTag) // reserved value declared by the owner: fine

	comm.Send(c, 1, negCtl, buf)     // want `reserved range`
	comm.Send(c, 1, haloStolen, buf) // want `reserved range`

	//lint:allow tagcheck Scratch probe in a throwaway harness
	c.Probe(0, 99)
}
