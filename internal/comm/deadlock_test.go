package comm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"odinhpc/internal/comm"
)

// Tags of the deadlock corpus.
const (
	tagDLRing    = 601 // recv-before-send ring, and its healthy variants
	tagDLToken   = 602 // fan-in traffic before the orphan receive
	tagDLOrphan  = 603 // never sent by anyone
	tagDLGone    = 604 // awaited from a rank that returned without sending
	tagDLTwice   = 605 // sent once, received twice
	tagDLRelay   = 606 // cyclic rendezvous, two rounds
	tagDLBarrier = 607 // awaited by rank 0 while its peers sit in Barrier
	tagDLPool    = 608 // wildcard token pool: requests
	tagDLGrant   = 609 // wildcard token pool: grants
	tagDLPing    = 610
	tagDLPong    = 611
)

// deadlockSizes are the communicator sizes every corpus protocol runs at.
var deadlockSizes = []int{1, 2, 3, 4, 5, 7, 8}

// deadlockCase is one protocol of the runtime deadlock corpus. blocked is
// nil for a healthy protocol, which must finish with no error; for a
// deadlocking one it gives, at size p, the texts its FaultDeadlock must
// contain: the blocked receive's source and tag, and any ranks that returned.
type deadlockCase struct {
	name    string
	body    func(c *comm.Comm) error
	blocked func(p int) []string
}

// waits is the text a FaultDeadlock gives a rank of the world communicator
// parked on (src, tag).
func waits(rank int, src string, tag int) string {
	return fmt.Sprintf("rank %d of comm world waits for src %s (tag %d)", rank, src, tag)
}

// returned is the text a FaultDeadlock gives the world ranks lo..hi-1 that
// returned; none at all when the range is empty.
func returned(lo, hi int) []string {
	if lo >= hi {
		return nil
	}
	var rs []string
	for r := lo; r < hi; r++ {
		rs = append(rs, fmt.Sprint(r))
	}
	return []string{"returned: rank " + strings.Join(rs, ", ")}
}

// recvBeforeSendRing is the textbook deadlock: every rank receives from its
// predecessor before it sends to its successor, so no rank reaches its send.
func recvBeforeSendRing(c *comm.Comm) error {
	r, p := c.Rank(), c.Size()
	got := comm.Recv[int](c, (r+p-1)%p, tagDLRing)
	comm.Send(c, (r+1)%p, tagDLRing, got)
	return nil
}

// ringBlocked is what recvBeforeSendRing's FaultDeadlock names at size p.
func ringBlocked(p int) []string { return []string{waits(0, fmt.Sprint(p-1), tagDLRing)} }

var deadlockCorpus = []deadlockCase{
	{"recv-before-send ring", recvBeforeSendRing, ringBlocked},

	{"orphan receive", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		if r != 0 {
			comm.Send(c, 0, tagDLToken, []int{r})
			return nil
		}
		for src := 1; src < p; src++ {
			comm.Recv[int](c, src, tagDLToken)
		}
		comm.Recv[int](c, 1%p, tagDLOrphan)
		return nil
	}, func(p int) []string {
		return append(returned(1, p), waits(0, fmt.Sprint(1%p), tagDLOrphan))
	}},

	{"receive from a returned rank", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		if r == p-1 && p > 1 {
			return nil
		}
		comm.Recv[int](c, p-1, tagDLGone)
		return nil
	}, func(p int) []string {
		return append(returned(max(p-1, 1), p), waits(0, fmt.Sprint(p-1), tagDLGone))
	}},

	{"receive twice, send once", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		comm.Send(c, (r+1)%p, tagDLTwice, []int{r})
		comm.Recv[int](c, (r+p-1)%p, tagDLTwice)
		comm.Recv[int](c, (r+p-1)%p, tagDLTwice)
		return nil
	}, func(p int) []string { return []string{waits(0, fmt.Sprint(p-1), tagDLTwice)} }},

	{"cyclic rendezvous", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		for i := 0; i < 2; i++ {
			got := comm.Recv[int](c, (r+1)%p, tagDLRelay)
			comm.Send(c, (r+p-1)%p, tagDLRelay, got)
		}
		return nil
	}, func(p int) []string { return []string{waits(0, fmt.Sprint(1%p), tagDLRelay)} }},

	{"Barrier against Recv", func(c *comm.Comm) error {
		if c.Rank() == 0 {
			comm.Recv[int](c, c.Size()-1, tagDLBarrier)
			return nil
		}
		c.Barrier()
		return nil
	}, func(p int) []string { return []string{waits(0, fmt.Sprint(p-1), tagDLBarrier)} }},

	{"wildcard off by one", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		if r != 0 {
			comm.Send(c, 0, tagDLPool, []int{r})
			return nil
		}
		for i := 0; i < p; i++ {
			comm.Recv[int](c, comm.AnySource, tagDLPool)
		}
		return nil
	}, func(p int) []string {
		return append(returned(1, p), waits(0, "any", tagDLPool))
	}},

	{"SendRecv ring", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		for i := 0; i < 3; i++ {
			c.SendRecv((r+1)%p, []float64{float64(r)}, (r+p-1)%p, tagDLRing)
		}
		return nil
	}, nil},

	{"parity ring", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		for i := 0; i < 3; i++ {
			if r%2 == 0 {
				comm.Send(c, (r+1)%p, tagDLRing, []int{r})
				comm.Recv[int](c, (r+p-1)%p, tagDLRing)
			} else {
				got := comm.Recv[int](c, (r+p-1)%p, tagDLRing)
				comm.Send(c, (r+1)%p, tagDLRing, got)
			}
		}
		return nil
	}, nil},

	{"ping-pong", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		for i := 0; i < 50 && p > 1; i++ {
			switch r {
			case 0:
				comm.Send(c, p-1, tagDLPing, []int{i})
				comm.Recv[int](c, p-1, tagDLPong)
			case p - 1:
				got := comm.Recv[int](c, 0, tagDLPing)
				comm.Send(c, 0, tagDLPong, got)
			}
		}
		return nil
	}, nil},

	{"pipeline", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		for i := 0; i < 5; i++ {
			v := []int{i}
			if r > 0 {
				v = comm.Recv[int](c, r-1, tagDLRing)
			}
			if r < p-1 {
				comm.Send(c, r+1, tagDLRing, v)
			}
		}
		return nil
	}, nil},

	{"fan-in", func(c *comm.Comm) error {
		r, p := c.Rank(), c.Size()
		if r != 0 {
			comm.Send(c, 0, tagDLToken, []int{r})
			return nil
		}
		for src := 1; src < p; src++ {
			comm.Recv[int](c, src, tagDLToken)
		}
		return nil
	}, nil},

	{"wildcard token pool", func(c *comm.Comm) error {
		const rounds = 3
		r, p := c.Rank(), c.Size()
		if r != 0 {
			for i := 0; i < rounds; i++ {
				comm.Send(c, 0, tagDLPool, []int{r})
				comm.Recv[int](c, 0, tagDLGrant)
			}
			return nil
		}
		for n := rounds * (p - 1); n > 0; n-- {
			src, _, _ := comm.RecvMsg[int](c, comm.AnySource, tagDLPool)
			comm.Send(c, src, tagDLGrant, []int{n})
		}
		return nil
	}, nil},
}

// TestDeadlockCorpus runs every corpus protocol on an inproc session with no
// receive deadline, under scheduling jitter, at every size of
// deadlockSizes. A deadlocking protocol must fail with a FaultDeadlock that
// names its blocked receive; a healthy one must finish with no error under
// three jitter seeds. The chaostest watchdog turns a missed deadlock into a
// failure instead of a hang.
func TestDeadlockCorpus(t *testing.T) {
	for _, tc := range deadlockCorpus {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range deadlockSizes {
				seeds := []int64{int64(p)}
				if tc.blocked == nil {
					seeds = append(seeds, int64(p)+100, int64(p)+200)
				}
				for _, seed := range seeds {
					cfg := comm.Config{Transport: "inproc", Jitter: &comm.SchedJitter{Seed: seed, Prob: 0.25}}
					_, err := runWatched(p, cfg, tc.body)
					if tc.blocked == nil {
						if err != nil {
							t.Fatalf("P=%d seed %d: %v", p, seed, err)
						}
						continue
					}
					checkDeadlock(t, p, err, tc.blocked(p))
				}
			}
		})
	}
}

// checkDeadlock fails the test unless err is a FaultDeadlock whose message
// contains every text in want.
func checkDeadlock(t *testing.T, p int, err error, want []string) {
	t.Helper()
	var fe *comm.FaultError
	if !errors.As(err, &fe) || fe.Kind != comm.FaultDeadlock {
		t.Fatalf("P=%d: err = %v, want a FaultDeadlock", p, err)
	}
	for _, w := range want {
		if !strings.Contains(fe.Error(), w) {
			t.Fatalf("P=%d: %q does not name %q", p, fe.Error(), w)
		}
	}
}
