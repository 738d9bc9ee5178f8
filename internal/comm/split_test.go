package comm

import (
	"fmt"
	"testing"
)

func TestSplitEvenOdd(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub == nil {
			return fmt.Errorf("rank %d got nil subcomm", c.Rank())
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("old rank %d: sub rank %d want %d", c.Rank(), sub.Rank(), want)
		}
		// Independent collectives per subgroup: sum of old ranks.
		sum := AllreduceScalar(sub, c.Rank(), OpSum)
		want := 0 + 2 + 4
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5
		}
		if sum != want {
			return fmt.Errorf("subgroup sum %d want %d", sum, want)
		}
		// And the parent communicator still works afterwards.
		total := AllreduceScalar(c, 1, OpSum)
		if total != 6 {
			return fmt.Errorf("parent allreduce %d", total)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	// Reversed keys reverse the subgroup ranks.
	err := Run(4, func(c *Comm) error {
		sub := c.Split(0, -c.Rank())
		if sub.Rank() != c.Size()-1-c.Rank() {
			return fmt.Errorf("old %d -> sub %d", c.Rank(), sub.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOptOut(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 2 {
			if sub != nil {
				return fmt.Errorf("opted-out rank got a subcomm")
			}
			return nil
		}
		if sub == nil || sub.Size() != 4 {
			return fmt.Errorf("subcomm wrong: %v", sub)
		}
		if got := AllreduceScalar(sub, 1, OpSum); got != 4 {
			return fmt.Errorf("subgroup size via allreduce: %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitSingletons(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		sub := c.Split(c.Rank(), 0) // every rank its own color
		if sub.Size() != 1 || sub.Rank() != 0 {
			return fmt.Errorf("singleton: size %d rank %d", sub.Size(), sub.Rank())
		}
		// Collectives on a singleton are trivially correct.
		if got := AllreduceScalar(sub, 42, OpSum); got != 42 {
			return fmt.Errorf("singleton allreduce %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitAllOptOut(t *testing.T) {
	// Every rank passes a negative color: no subgroups form, every rank
	// gets nil, and the parent communicator stays fully functional.
	err := Run(4, func(c *Comm) error {
		sub := c.Split(-1-c.Rank(), 0)
		if sub != nil {
			return fmt.Errorf("rank %d got a subcomm from an all-negative split", c.Rank())
		}
		if got := AllreduceScalar(c, 1, OpSum); got != 4 {
			return fmt.Errorf("parent allreduce after empty split: %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitSparseColors(t *testing.T) {
	// Colors with gaps (0 and 7) must form exactly two groups; the unused
	// color values in between create no phantom groups or misnumbering.
	err := Run(5, func(c *Comm) error {
		color := 0
		if c.Rank() >= 3 {
			color = 7
		}
		sub := c.Split(color, 0)
		wantSize := 3
		if color == 7 {
			wantSize = 2
		}
		if sub == nil || sub.Size() != wantSize {
			return fmt.Errorf("rank %d color %d: sub %v, want size %d", c.Rank(), color, sub, wantSize)
		}
		// Subgroup-local collective sums old ranks of the group only.
		got := AllreduceScalar(sub, c.Rank(), OpSum)
		want := 0 + 1 + 2
		if color == 7 {
			want = 3 + 4
		}
		if got != want {
			return fmt.Errorf("group %d sum %d want %d", color, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitSingleRankCollectives(t *testing.T) {
	// A single-rank subcommunicator must support the full collective
	// surface, including a further Split of itself.
	err := Run(3, func(c *Comm) error {
		sub := c.Split(c.Rank(), 99)
		if sub.Size() != 1 || sub.Rank() != 0 {
			return fmt.Errorf("singleton: size %d rank %d", sub.Size(), sub.Rank())
		}
		sub.Barrier()
		buf := []float64{float64(c.Rank())}
		Bcast(sub, 0, buf)
		if got := Gather(sub, 0, buf); len(got) != 1 || got[0][0] != buf[0] {
			return fmt.Errorf("singleton gather: %v", got)
		}
		if got := Alltoall(sub, [][]float64{{1, 2}}); len(got[0]) != 2 {
			return fmt.Errorf("singleton alltoall: %v", got)
		}
		subsub := sub.Split(0, 0)
		if subsub == nil || subsub.Size() != 1 {
			return fmt.Errorf("split of singleton failed: %v", subsub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitStatsAttribution(t *testing.T) {
	// Sub-communicator traffic is attributed to the subcomm's own stats,
	// per pair in subgroup rank space, and parent traffic never leaks in.
	err := Run(4, func(c *Comm) error {
		// Parent noise before the split.
		AllreduceScalar(c, 1, OpSum)
		sub := c.Split(c.Rank()/2, 0)
		if c.Rank()%2 == 0 {
			Send(sub, 1, tagData, make([]float64, 100))
		} else {
			Recv[float64](sub, 0, tagData)
		}
		sub.Barrier()
		snap := sub.Stats()
		if snap.Size != 2 {
			return fmt.Errorf("sub stats size %d, want 2", snap.Size)
		}
		if got := snap.ByteCount(0, 1); got < 800 {
			return fmt.Errorf("sub stats missed subgroup payload: %d bytes 0->1", got)
		}
		// All subgroup traffic lives strictly inside the 2x2 matrix, and
		// the payload message is exactly one logical send.
		if snap.TotalBytes() < 800 || snap.MsgCount(0, 1) < 1 {
			return fmt.Errorf("sub stats inconsistent: %v", snap)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitTrafficIsolated(t *testing.T) {
	// Subgroup traffic must not appear in the parent's statistics.
	stats, err := RunStats(4, func(c *Comm) error {
		sub := c.Split(c.Rank()/2, 0)
		c.Barrier()
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		// Heavy subgroup traffic.
		if sub.Rank() == 0 {
			Send(sub, 1, tagData, make([]float64, 1000))
		} else {
			Recv[float64](sub, 0, tagData)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Snapshot().TotalBytes(); got > 64 {
		t.Fatalf("subgroup traffic leaked into parent stats: %d bytes", got)
	}
}
