// Package slicing owns the halo-exchange reservation: its own use of
// HaloTag must not be flagged (rule 2's owner exemption).
package slicing

import "comm"

// HaloTag is the reserved halo-exchange tag, mirroring the real constant.
const HaloTag = 1<<30 + 7

func exchange(c *comm.Comm, buf []float64) {
	comm.Send(c, 1, HaloTag, buf)     // owner package: fine
	comm.Recv[float64](c, 0, HaloTag) // fine
}
