package comm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"odinhpc/internal/comm"
)

// divergent is one float64 collective of the divergence matrix: call runs it
// on one rank, and tag is the text a fault message gives its first receive's
// tag (every call is the session's first collective, rooted ones at 0).
type divergent struct {
	tag  string
	call func(c *comm.Comm)
}

var divergents = []divergent{
	{"bcast root 0 seq 1 round 0", func(c *comm.Comm) { comm.Bcast(c, 0, []float64{7, 2}) }},
	{"allreduce seq 1 round", func(c *comm.Comm) { comm.AllreduceInto(c, []float64{1, 2}, comm.OpSum) }},
	{"reduce root 0 seq 1 round 0", func(c *comm.Comm) { comm.Reduce(c, 0, []float64{1, 2}, comm.OpSum) }},
	{"allgather seq 1 round", func(c *comm.Comm) { comm.AllgatherFlat(c, []float64{1, 2}) }},
	{"scatter root 0 seq 1 round 0", func(c *comm.Comm) {
		parts := make([][]float64, c.Size())
		for i := range parts {
			parts[i] = []float64{float64(i), 2}
		}
		comm.Scatter(c, 0, parts)
	}},
	{"scan seq 1 round 0", func(c *comm.Comm) { comm.Scan(c, []float64{1, 2}, comm.OpSum) }},
}

// divergedBody has even ranks call a and odd ranks call b.
func divergedBody(a, b divergent) func(c *comm.Comm) error {
	return func(c *comm.Comm) error {
		if c.Rank()%2 == 0 {
			a.call(c)
		} else {
			b.call(c)
		}
		return nil
	}
}

// mismatch is one collective whose even and odd ranks agree on the call but
// not on its element type or, where it is fixed, its length: tag is the
// text a fault message gives the collective's tag, and sent and want the
// payload each side names.
type mismatch struct {
	name, tag, sent, want string
	even, odd             func(c *comm.Comm)
}

var mismatches = []mismatch{
	{"allreduce-scalar float64/int", "allreduce seq 1 round", "[]", "[]",
		func(c *comm.Comm) { comm.AllreduceScalar(c, 1.0, comm.OpSum) },
		func(c *comm.Comm) { comm.AllreduceScalar(c, 1, comm.OpSum) }},
	{"allreduce length 2/3", "allreduce seq 1 round", "[]float64 of ", "[]float64 of ",
		func(c *comm.Comm) { comm.AllreduceInto(c, make([]float64, 2), comm.OpSum) },
		func(c *comm.Comm) { comm.AllreduceInto(c, make([]float64, 3), comm.OpSum) }},
	{"bcast length 1/2", "bcast root 0 seq 1 round 0", "[]float64 of 1", "[]float64 of 2",
		func(c *comm.Comm) { comm.Bcast(c, 0, make([]float64, 1)) },
		func(c *comm.Comm) { comm.Bcast(c, 0, make([]float64, 2)) }},
	{"bcast float64/int32", "bcast root 0 seq 1 round 0", "[]float64 of 2", "[]int32 of 2",
		func(c *comm.Comm) { comm.Bcast(c, 0, make([]float64, 2)) },
		func(c *comm.Comm) { comm.Bcast(c, 0, make([]int32, 2)) }},
	{"reduce length 1/2", "reduce root 0 seq 1 round 0", "[]int of ", "[]int of ",
		func(c *comm.Comm) { comm.Reduce(c, 0, make([]int, 1), comm.OpSum) },
		func(c *comm.Comm) { comm.Reduce(c, 0, make([]int, 2), comm.OpSum) }},
	{"scan float32/float64", "scan seq 1 round 0", "[]float32 of 1", "[]float64 of 1",
		func(c *comm.Comm) { comm.Scan(c, []float32{1}, comm.OpSum) },
		func(c *comm.Comm) { comm.Scan(c, []float64{1}, comm.OpSum) }},
	{"gather float64/int", "gather root 0 seq 1 round 0", "[]int of 1", "[]float64 of any length",
		func(c *comm.Comm) { comm.Gather(c, 0, []float64{1}) },
		func(c *comm.Comm) { comm.Gather(c, 0, []int{1}) }},
	{"allgather byte/bool", "allgather seq 1 round", "[]", "[]",
		func(c *comm.Comm) { comm.Allgather(c, []byte{1}) },
		func(c *comm.Comm) { comm.Allgather(c, []bool{true}) }},
	{"alltoall-indexed length 1/2", "alltoall-indexed seq 1 round 0", "[]float64 of ", "[]float64 of ",
		func(c *comm.Comm) { indexedBlocks(c, 1) }, func(c *comm.Comm) { indexedBlocks(c, 2) }},
}

// indexedBlocks runs an AlltoallIndexed that sends and expects n values per
// peer.
func indexedBlocks(c *comm.Comm, n int) {
	buf, idx := make([]float64, n), make([][]int, c.Size())
	for i := range idx {
		idx[i] = make([]int, n)
		for k := range idx[i] {
			idx[i][k] = k
		}
	}
	comm.AlltoallIndexed(c, buf, idx, buf, idx)
}

// TestDivergentCollectivesFailTyped runs every ordered pair of six different
// float64 collectives, even ranks calling the first and odd ranks the second,
// at P = 2, 3 and 4 on inproc. A collective's tag names its kind (and root),
// so no pairing can match the other's messages: each must fail with a
// FaultDeadlock (some rank parks) or a FaultUnread (every rank returned over
// a message it never received), never return nil or panic untyped, and the
// message must name both collectives with their sequence number and round.
// No collective tag may print as the wildcard. Every mismatch, ranks
// that call the same collective with another element type or length, must
// fail with a FaultMismatch on inproc and on tcp whose message names the
// collective's tag and both payloads.
func TestDivergentCollectivesFailTyped(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		for _, mm := range mismatches {
			for _, tr := range []string{"inproc", "tcp"} {
				name := fmt.Sprintf("P=%d %s %s", p, tr, mm.name)
				_, err := runWatched(p, comm.Config{Transport: tr}, divergedBody(divergent{call: mm.even}, divergent{call: mm.odd}))
				var fe *comm.FaultError
				if !errors.As(err, &fe) || fe.Kind != comm.FaultMismatch {
					t.Errorf("%s: err = %v, want a FaultMismatch", name, err)
					continue
				}
				msg := fe.Error()
				for _, want := range []string{"(tag " + mm.tag, "sent " + mm.sent, "expects " + mm.want} {
					if !strings.Contains(msg, want) {
						t.Errorf("%s: %q does not name %q", name, msg, want)
					}
				}
			}
		}
	}
	for _, p := range []int{2, 3, 4} {
		for i, a := range divergents {
			for j, b := range divergents {
				if i == j {
					continue
				}
				name := fmt.Sprintf("P=%d even=%s odd=%s", p, a.tag, b.tag)
				_, err := runWatched(p, comm.Config{Transport: "inproc"}, divergedBody(a, b))
				var fe *comm.FaultError
				if !errors.As(err, &fe) || fe.Kind != comm.FaultDeadlock && fe.Kind != comm.FaultUnread {
					t.Errorf("%s: err = %v, want a FaultDeadlock or FaultUnread", name, err)
					continue
				}
				msg := fe.Error()
				for _, want := range []string{"(tag " + a.tag, "(tag " + b.tag} {
					if !strings.Contains(msg, want) {
						t.Errorf("%s: %q does not name %q", name, msg, want)
					}
				}
				if strings.Contains(msg, "tag any") {
					t.Errorf("%s: %q prints a collective tag as the wildcard", name, msg)
				}
			}
		}
	}
}

// TestDivergentCollectivesTimeOutOnTCP is the tcp leg of the divergence
// matrix. tcp has no deadlock detector, so each pairing that parks a rank on
// inproc must fail there with FaultTimeout at the session's receive
// deadline, naming the collective it waited in. The unread check runs on
// loopback tcp too, so each pairing that ends in FaultUnread on inproc must
// end in FaultUnread there.
func TestDivergentCollectivesTimeOutOnTCP(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		for i, a := range divergents {
			for j, b := range divergents {
				if i == j {
					continue
				}
				name := fmt.Sprintf("P=%d even=%s odd=%s", p, a.tag, b.tag)
				_, err := runWatched(p, comm.Config{Transport: "inproc"}, divergedBody(a, b))
				var fe *comm.FaultError
				if !errors.As(err, &fe) || fe.Kind != comm.FaultDeadlock && fe.Kind != comm.FaultUnread {
					continue
				}
				want := comm.FaultTimeout
				if fe.Kind == comm.FaultUnread {
					want = comm.FaultUnread
				}
				_, err = runWatched(p, comm.Config{Transport: "tcp", RecvTimeout: 20 * time.Millisecond}, divergedBody(a, b))
				if !errors.As(err, &fe) || fe.Kind != want {
					t.Errorf("%s: err = %v, want a %v", name, err, want)
					continue
				}
				if msg := fe.Error(); !strings.Contains(msg, "(tag "+a.tag) && !strings.Contains(msg, "(tag "+b.tag) {
					t.Errorf("%s: %q names neither collective", name, msg)
				}
			}
		}
	}
}

// divergenceProgram is one whole program of the divergence corpus: the
// positives and quiet negatives of the static collective-symmetry checker
// this corpus replaced, each run at P = 1…8. failsFrom is the smallest size
// at which it must fail typed (0 for a program that must pass at every
// size); below it the program must pass.
type divergenceProgram struct {
	name      string
	failsFrom int
	body      func(c *comm.Comm) error
}

const tagWatchdog = 404 // divergenceCorpus's point-to-point tag, sent by nobody

// wantBcast is nil when buf holds what rank 0 broadcast into it.
func wantBcast(c *comm.Comm, buf []float64) error {
	if buf[0] != 42 || buf[1] != -1 {
		return fmt.Errorf("rank %d: bcast left %v", c.Rank(), buf)
	}
	return nil
}

// rootBuf is a rank's Bcast buffer: rank 0's holds the payload.
func rootBuf(c *comm.Comm) []float64 {
	if c.Rank() == 0 {
		return []float64{42, -1}
	}
	return make([]float64, 2)
}

var divergenceCorpus = []divergenceProgram{
	// Collectives under rank-dependent control flow.
	{"collective under a rank guard", 2, func(c *comm.Comm) error {
		buf := rootBuf(c)
		c.Barrier()
		if c.Rank() == 0 {
			c.Barrier()
		}
		if c.Rank() != 0 {
			comm.Bcast(c, 0, buf)
		}
		return nil
	}},
	{"rank taint through locals", 2, func(c *comm.Comm) error {
		r := c.Rank()
		isRoot := r == 0
		if isRoot {
			comm.AllreduceScalar(c, 1.0, comm.OpSum)
		}
		switch r % 2 {
		case 0:
			c.Barrier()
		}
		return nil
	}},
	{"early return on rank 0", 2, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			return nil
		}
		c.Barrier()
		return nil
	}},
	{"Split on rank 0 alone", 2, func(c *comm.Comm) error {
		sub := c.Split(c.Rank()%2, 0)
		if c.Rank()%2 == 0 {
			comm.AllreduceScalar(sub, 1.0, comm.OpSum)
			sub.Barrier()
		}
		if c.Rank() == 0 {
			c.Split(0, 0)
		}
		return nil
	}},
	{"lone Barrier on rank 0", 2, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			c.Barrier()
		}
		return nil
	}},
	{"typed collectives split by rank", 2, func(c *comm.Comm) error {
		buf, idx := []float64{1, 2}, make([][]int, c.Size())
		comm.AllreduceInto(c, buf, comm.OpSum)
		comm.AlltoallIndexed(c, buf, idx, buf, idx)
		if c.Rank() == 0 {
			comm.AllreduceInto(c, buf, comm.OpSum)
		} else {
			comm.AlltoallIndexed(c, buf, idx, buf, idx)
		}
		return nil
	}},

	// Permuted collective sequences across branches.
	{"permuted if/else", 2, func(c *comm.Comm) error {
		buf := rootBuf(c)
		if c.Rank()%2 == 0 {
			comm.Bcast(c, 0, buf)
			comm.Gather(c, 0, buf)
		} else {
			comm.Gather(c, 0, buf)
			comm.Bcast(c, 0, buf)
		}
		return nil
	}},
	{"different collective sets", 2, func(c *comm.Comm) error {
		buf := rootBuf(c)
		if c.Rank() == 0 {
			comm.Bcast(c, 0, buf)
			comm.Gather(c, 0, buf)
		} else {
			c.Barrier()
			comm.Bcast(c, 0, buf)
		}
		return nil
	}},
	{"one collective per arm", 2, func(c *comm.Comm) error {
		buf := rootBuf(c)
		if c.Rank() == 0 {
			comm.Bcast(c, 0, buf)
		} else {
			comm.Gather(c, 0, buf)
		}
		return nil
	}},
	{"permuted on a one-color Split", 2, func(c *comm.Comm) error {
		sub := c.Split(1, 0)
		buf := rootBuf(sub)
		if c.Rank()%2 == 0 {
			comm.Bcast(sub, 0, buf)
			comm.Gather(sub, 0, buf)
		} else {
			comm.Gather(sub, 0, buf)
			comm.Bcast(sub, 0, buf)
		}
		return nil
	}},
	{"permuted switch", 2, func(c *comm.Comm) error {
		buf := rootBuf(c)
		switch c.Rank() % 3 {
		case 0:
			c.Barrier()
			comm.Bcast(c, 0, buf)
		case 1:
			comm.Bcast(c, 0, buf)
			c.Barrier()
		}
		return nil
	}},
	{"permuted closures, called", 2, func(c *comm.Comm) error {
		buf := rootBuf(c)
		var fns []func()
		if c.Rank() == 0 {
			fns = append(fns, func() { comm.Bcast(c, 0, buf) }, func() { comm.Gather(c, 0, buf) })
		} else {
			fns = append(fns, func() { comm.Gather(c, 0, buf) }, func() { comm.Bcast(c, 0, buf) })
		}
		for _, f := range fns {
			f()
		}
		return nil
	}},
	{"permuted typed collectives", 2, func(c *comm.Comm) error {
		buf, idx := []float64{1, 2}, make([][]int, c.Size())
		if c.Rank()%2 == 0 {
			comm.AlltoallIndexed(c, buf, idx, buf, idx)
			comm.AllreduceInto(c, buf, comm.OpSum)
		} else {
			comm.AllreduceInto(c, buf, comm.OpSum)
			comm.AlltoallIndexed(c, buf, idx, buf, idx)
		}
		return nil
	}},
	{"permuted Bcast/Gather with distinct buffers", 2, func(c *comm.Comm) error {
		buf, vals := rootBuf(c), []float64{float64(c.Rank())}
		if c.Rank()%2 == 0 {
			comm.Bcast(c, 0, buf)
			comm.Gather(c, 0, vals)
		} else {
			comm.Gather(c, 0, vals)
			comm.Bcast(c, 0, buf)
		}
		return nil
	}},

	// A point-to-point wait on a tag nobody sends: no collective diverges,
	// so the static checker stayed quiet, but it deadlocks at every size.
	{"receive nobody sends", 1, func(c *comm.Comm) error {
		if c.Rank() == c.Size()-1 {
			comm.Recv[byte](c, comm.AnySource, tagWatchdog)
		} else {
			comm.Recv[byte](c, c.Size()-1, tagWatchdog)
		}
		return nil
	}},

	// Quiet negatives: every rank calls the same collectives in the same order.
	{"error-abort guard", 0, func(c *comm.Comm) error {
		if c.Rank() < 0 {
			return errors.New("bad rank")
		}
		c.Barrier()
		return nil
	}},
	{"transport guard", 0, func(c *comm.Comm) error {
		buf := rootBuf(c)
		if c.Transport() == "tcp" {
			c.Barrier()
			comm.Bcast(c, 0, buf)
			return wantBcast(c, buf)
		}
		return nil
	}},
	{"disjoint Split subgroups", 0, func(c *comm.Comm) error {
		sub := c.Split(c.Rank()%2, 0)
		buf := rootBuf(sub)
		if c.Rank()%2 == 0 {
			comm.Bcast(sub, 0, buf)
			comm.Gather(sub, 0, buf)
		} else {
			comm.Gather(sub, 0, buf)
			comm.Bcast(sub, 0, buf)
		}
		return wantBcast(sub, buf)
	}},

	// Flagged statically, correct at run time: the same sequence on both arms
	// of a rank guard, a permuted arm under a rank-independent condition, and
	// two communicators' broadcasts inverted on rank 0 (sends are eager, so
	// neither waits on the other).
	{"same order on both arms", 0, func(c *comm.Comm) error {
		buf := rootBuf(c)
		if c.Rank() == 0 {
			comm.Bcast(c, 0, buf)
			comm.Gather(c, 0, buf)
		} else {
			comm.Bcast(c, 0, buf)
			comm.Gather(c, 0, buf)
		}
		return wantBcast(c, buf)
	}},
	{"permuted arm under a uniform condition", 0, func(c *comm.Comm) error {
		for mode := 0; mode < 3; mode++ {
			buf := rootBuf(c)
			if mode == 0 {
				comm.Bcast(c, 0, buf)
				c.Barrier()
			} else if mode == 1 {
				comm.Bcast(c, 0, buf)
				c.Barrier()
			} else {
				c.Barrier()
				comm.Bcast(c, 0, buf)
			}
			if err := wantBcast(c, buf); err != nil {
				return err
			}
		}
		return nil
	}},
	{"two communicators inverted", 0, func(c *comm.Comm) error {
		d := c.Split(0, c.Rank())
		buf, dbuf := rootBuf(c), rootBuf(d)
		if c.Rank() == 0 {
			comm.Bcast(c, 0, buf)
			comm.Bcast(d, 0, dbuf)
		} else {
			comm.Bcast(d, 0, dbuf)
			comm.Bcast(c, 0, buf)
		}
		if err := wantBcast(c, buf); err != nil {
			return err
		}
		return wantBcast(d, dbuf)
	}},
}

// TestDivergenceCorpus runs every corpus program whole on inproc under
// scheduling jitter at P = 1…8. From its failsFrom size on, a program must
// fail with a FaultDeadlock or a FaultUnread; below it, and at every size for
// a program that must pass, it must return nil under three jitter seeds.
func TestDivergenceCorpus(t *testing.T) {
	for _, prog := range divergenceCorpus {
		t.Run(prog.name, func(t *testing.T) {
			for p := 1; p <= 8; p++ {
				fails := prog.failsFrom > 0 && p >= prog.failsFrom
				seeds := []int64{int64(p)}
				if !fails {
					seeds = append(seeds, int64(p)+100, int64(p)+200)
				}
				for _, seed := range seeds {
					cfg := comm.Config{Transport: "inproc", Jitter: &comm.SchedJitter{Seed: seed, Prob: 0.25}}
					_, err := runWatched(p, cfg, prog.body)
					if !fails {
						if err != nil {
							t.Fatalf("P=%d seed %d: %v", p, seed, err)
						}
						continue
					}
					var fe *comm.FaultError
					if !errors.As(err, &fe) || fe.Kind != comm.FaultDeadlock && fe.Kind != comm.FaultUnread {
						t.Fatalf("P=%d seed %d: err = %v, want a FaultDeadlock or FaultUnread", p, seed, err)
					}
				}
			}
		})
	}
}
