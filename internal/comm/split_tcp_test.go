package comm_test

// Split over the tcp transport at P=8: sub-communicator construction is
// pure arithmetic over an Allgather (see split.go), so it must behave
// identically over real sockets — group sizes, reversed key ordering, and
// subgroup collectives — including under scheduling-jitter pressure.

import (
	"fmt"

	"testing"

	"odinhpc/internal/comm"
)

func TestSplitTCPAtP8(t *testing.T) {
	const p = 8
	cfg := comm.Config{Transport: "tcp", Jitter: stressJitter(17)}
	_, err := comm.RunConfig(p, cfg, func(c *comm.Comm) error {
		color := c.Rank() % 3
		sub := c.Split(color, -c.Rank()) // negative key reverses the ordering
		// Colors 0 {0,3,6} and 1 {1,4,7} have three members; color 2 {2,5}
		// has two.
		wantSize := 3
		if color == 2 {
			wantSize = 2
		}
		if sub.Size() != wantSize {
			return fmt.Errorf("rank %d: sub size %d, want %d", c.Rank(), sub.Size(), wantSize)
		}
		// key=-rank sorts members by descending world rank.
		wantRank := 0
		for r := 0; r < p; r++ {
			if r%3 == color && r > c.Rank() {
				wantRank++
			}
		}
		if sub.Rank() != wantRank {
			return fmt.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Subgroup collectives ride the same sockets: the group sum of world
		// ranks must come out on every member.
		wantSum := 0
		for r := 0; r < p; r++ {
			if r%3 == color {
				wantSum += r
			}
		}
		if got := comm.AllreduceScalar(sub, c.Rank(), comm.OpSum); got != wantSum {
			return fmt.Errorf("rank %d: subgroup sum %d, want %d", c.Rank(), got, wantSum)
		}
		// Members see each other in sub-rank order through the subgroup's
		// own Allgather.
		members := comm.AllgatherFlat(sub, []int{c.Rank()})
		for i := 1; i < len(members); i++ {
			if members[i-1] < members[i] {
				return fmt.Errorf("rank %d: members %v not in descending world order", c.Rank(), members)
			}
		}
		// A second-level split (every subgroup keeps its leader only,
		// others opt out) must also construct over tcp.
		leafColor := 0
		if sub.Rank() != 0 {
			leafColor = -1
		}
		leaf := sub.Split(leafColor, 0)
		if sub.Rank() == 0 {
			if leaf == nil || leaf.Size() != 1 {
				return fmt.Errorf("rank %d: leader leaf = %v", c.Rank(), leaf)
			}
		} else if leaf != nil {
			return fmt.Errorf("rank %d: opted out but got %v", c.Rank(), leaf)
		}
		// And the world communicator still works after nested splits.
		if got := comm.AllreduceScalar(c, 1, comm.OpSum); got != p {
			return fmt.Errorf("rank %d: world sum %d after splits", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
