package tpetra_test

// Hardening and edge-case coverage of the GatherPlan/Import path: length
// validation with a typed rank-stamped panic, self-lane traffic accounting,
// and plan correctness on degenerate request lists at several rank counts.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/tpetra"
)

func gatherFill(g int) float64 { return float64(g*g)*0.25 - float64(g) }

// TestGatherLengthErrorTyped pins the up-front validation: a local segment
// whose length disagrees with the source map must raise *GatherLengthError
// before any element moves, with the offending rank and both lengths.
func TestGatherLengthErrorTyped(t *testing.T) {
	err := comm.Run(1, func(c *comm.Comm) error {
		m := distmap.NewBlock(10, 1)
		plan := tpetra.NewGatherPlan(c, m, []int{0, 9})
		out := make([]float64, 2)
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Gather accepted a short local segment")
				return
			}
			ge, ok := r.(*tpetra.GatherLengthError)
			if !ok {
				t.Errorf("panic value is %T, want *GatherLengthError", r)
				return
			}
			if ge.Rank != 0 || ge.Got != 3 || ge.Want != 10 {
				t.Errorf("GatherLengthError = %+v, want Rank=0 Got=3 Want=10", ge)
			}
			if !strings.Contains(ge.Error(), "rank 0") {
				t.Errorf("error message not rank-stamped: %q", ge.Error())
			}
		}()
		plan.Gather(c, make([]float64, 3), out)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherLengthMismatchUnderWatchdog is the regression test for the
// original failure mode: one rank passes a vector from the wrong map into a
// collective Gather. Under a fault plan the session must abort promptly with
// the offending rank identified — peers report FaultError instead of
// hanging in the value Alltoall.
func TestGatherLengthMismatchUnderWatchdog(t *testing.T) {
	const n = 37
	_, err := comm.RunConfig(4, comm.Config{
		Faults:      &comm.FaultPlan{Seed: 1},
		RecvTimeout: 5 * time.Second,
	}, func(c *comm.Comm) error {
		m := distmap.NewBlock(n, c.Size())
		lo, hi := m.BlockRange(c.Rank())
		var needed []int
		if lo > 0 {
			needed = append(needed, lo-1)
		}
		if hi < n {
			needed = append(needed, hi)
		}
		plan := tpetra.NewGatherPlan(c, m, needed)
		local := make([]float64, m.LocalCount(c.Rank()))
		if c.Rank() == 2 {
			local = local[:len(local)-1] // the bug: a short vector at one rank
		}
		out := make([]float64, plan.OutLen())
		plan.Gather(c, local, out)
		return nil
	})
	if err == nil {
		t.Fatal("session with a mismatched vector at rank 2 reported no error")
	}
	var fe *comm.FaultError
	if errors.As(err, &fe) {
		t.Fatalf("root cause is a propagated FaultError %v; want rank 2's panic", err)
	}
	if !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "source map owns") {
		t.Fatalf("error does not identify the offending rank: %v", err)
	}
}

// TestGatherPlanSelfTrafficIsZero pins self-lane accounting: at P=1 every
// request is satisfied locally, so building and applying a plan must move
// zero wire messages and zero wire bytes (the index Alltoall and value
// Alltoall both collapse to local copies).
func TestGatherPlanSelfTrafficIsZero(t *testing.T) {
	const n = 64
	stats, err := comm.RunStats(1, func(c *comm.Comm) error {
		m := distmap.NewBlock(n, 1)
		needed := make([]int, n)
		for g := range needed {
			needed[g] = n - 1 - g
		}
		plan := tpetra.NewGatherPlan(c, m, needed)
		local := make([]float64, n)
		for i := range local {
			local[i] = gatherFill(i)
		}
		out := make([]float64, plan.OutLen())
		plan.Gather(c, local, out)
		for i, g := range needed {
			if out[i] != gatherFill(g) {
				t.Errorf("out[%d] = %g, want %g", i, out[i], gatherFill(g))
			}
		}
		if plan.RemoteCount() != 0 {
			t.Errorf("RemoteCount() = %d at P=1, want 0", plan.RemoteCount())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	for i, v := range snap.Msgs {
		if v != 0 {
			t.Fatalf("P=1 message matrix entry %d = %d, want all-zero", i, v)
		}
	}
	for i, v := range snap.Bytes {
		if v != 0 {
			t.Fatalf("P=1 byte matrix entry %d = %d, want all-zero", i, v)
		}
	}
}

// TestGatherSteadyStateAllocs pins the allocation-free apply path, at one,
// two and four ranks: a plan holds no scratch and its value exchange packs
// into comm's pooled message buffers, so a Gather — and with it a CrsMatrix.Apply on the
// benchmark's two stencils, and the allreduce under Vector.Dot — allocates
// nothing once the mailboxes are warm, whatever the number of ranks or
// neighbours. The counts are exact (alloctest), not bounds.
func TestGatherSteadyStateAllocs(t *testing.T) {
	const runs = 200
	kernels := []struct {
		name string
		prep func(c *comm.Comm) func()
	}{
		{"Gather", func(c *comm.Comm) func() {
			const n = 256
			m := distmap.NewBlock(n, c.Size())
			plan := tpetra.NewGatherPlan(c, m, []int{0, 1, n / 2, n - 1})
			local := make([]float64, m.LocalCount(c.Rank()))
			out := make([]float64, plan.OutLen())
			return func() { plan.Gather(c, local, out) }
		}},
		{"Vector.Dot", func(c *comm.Comm) func() {
			m := distmap.NewBlock(512, c.Size())
			x, y := tpetra.NewVector(c, m), tpetra.NewVector(c, m)
			x.PutScalar(1)
			y.PutScalar(2)
			return func() { x.Dot(y) }
		}},
		{"Apply/laplace1d", func(c *comm.Comm) func() {
			a := galeri.Laplace1DDist(c, distmap.NewBlock(512, c.Size()))
			x, y := tpetra.NewVector(c, a.Map()), tpetra.NewVector(c, a.Map())
			x.PutScalar(1)
			return func() { a.Apply(x, y) }
		}},
		{"Apply/laplace3d", func(c *comm.Comm) func() {
			a := galeri.Laplace3DDist(c, distmap.NewBlock(8*8*8, c.Size()), 8, 8, 8)
			x, y := tpetra.NewVector(c, a.Map()), tpetra.NewVector(c, a.Map())
			x.PutScalar(1)
			return func() { a.Apply(x, y) }
		}},
	}
	for _, k := range kernels {
		for _, p := range []int{1, 2, 4} {
			if got := alloctest.Mallocs(t, p, runs, k.prep) / runs; got != 0 {
				t.Errorf("%s at P=%d allocates %d objects per call (all ranks together), want 0", k.name, p, got)
			}
		}
	}
}

// naiveGather fetches needed elements via a dense Allgather of the whole
// vector — the obvious O(N) reference the plan is bitwise-checked against.
// Valid for contiguous block maps, where rank-order concatenation is global
// order.
func naiveGather(c *comm.Comm, local []float64, needed []int) []float64 {
	full := comm.AllgatherFlat(c, local)
	out := make([]float64, len(needed))
	for i, g := range needed {
		out[i] = full[g]
	}
	return out
}

// TestGatherPlanEdgeCases sweeps the degenerate request lists — duplicate
// globals (self-owned and remote), empty needed on a subset of ranks, and a
// request-everything plan — against the naive dense gather, bitwise, at
// several rank counts including a non-power-of-two.
func TestGatherPlanEdgeCases(t *testing.T) {
	const n = 29
	for _, p := range []int{1, 2, 4, 7} {
		err := comm.Run(p, func(c *comm.Comm) error {
			m := distmap.NewBlock(n, c.Size())
			local := make([]float64, m.LocalCount(c.Rank()))
			lo, _ := 0, 0
			if len(local) > 0 {
				lo, _ = m.BlockRange(c.Rank())
			}
			for i := range local {
				local[i] = gatherFill(lo + i)
			}

			cases := []struct {
				name   string
				needed []int
			}{
				{"duplicates", []int{0, 0, n - 1, n / 2, n - 1, n / 2, 0}},
				{"empty-on-odd-ranks", func() []int {
					if c.Rank()%2 == 1 {
						return nil
					}
					return []int{n - 1, 0}
				}()},
				{"request-everything", func() []int {
					all := make([]int, n)
					for g := range all {
						all[g] = g
					}
					return all
				}()},
			}
			for _, tc := range cases {
				plan := tpetra.NewGatherPlan(c, m, tc.needed)
				out := make([]float64, plan.OutLen())
				plan.Gather(c, local, out)
				want := naiveGather(c, local, tc.needed)
				for i := range want {
					if out[i] != want[i] {
						return fmt.Errorf("rank %d case %s: out[%d] = %g, want %g", c.Rank(), tc.name, i, out[i], want[i])
					}
				}
				// Second apply through the reused pack buffers must agree.
				out2 := make([]float64, plan.OutLen())
				plan.Gather(c, local, out2)
				for i := range want {
					if out2[i] != want[i] {
						return fmt.Errorf("rank %d case %s/reapply: out[%d] = %g, want %g", c.Rank(), tc.name, i, out2[i], want[i])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// TestLocalRowsAllocs pins the cold row walks at nothing per row: LocalRows
// refills one global-column buffer, so a walk of a 16^3 or a 32^3 Laplacian
// at P = 2 allocates only the transient CSR rebuilt from the kept SELL and
// the buffer's growth, about 8 objects a rank (at most 20 for both ranks),
// and TransposeDist, which inserts through it, stays under 0.05 objects a
// row (0.0125; its arrays grow by doubling). Both allocated at least one
// object a row when LocalRows handed out a fresh slice per row.
func TestLocalRowsAllocs(t *testing.T) {
	const runs = 20
	for _, nx := range []int{16, 32} {
		objs := alloctest.Mallocs(t, 2, runs, func(c *comm.Comm) func() {
			a := galeri.Laplace3DDist(c, distmap.NewBlock(nx*nx*nx, c.Size()), nx, nx, nx)
			var sum int
			return func() { a.LocalRows(func(g int, cols []int, _ []float64) { sum += g + len(cols) }) }
		}) / runs
		t.Logf("LocalRows at %d^3: %d objects a walk (both ranks)", nx, objs)
		if objs > 20 {
			t.Errorf("LocalRows at %d^3 allocates %d objects a walk, want <= 20", nx, objs)
		}
	}
	const nx = 32
	objs := alloctest.Mallocs(t, 2, runs, func(c *comm.Comm) func() {
		a := galeri.Laplace3DDist(c, distmap.NewBlock(nx*nx*nx, c.Size()), nx, nx, nx)
		return func() { a.TransposeDist() }
	}) / runs
	perRow := float64(objs) / float64(nx*nx*nx)
	t.Logf("TransposeDist: %d objects (%.4f a row)", objs, perRow)
	if perRow > 0.05 {
		t.Errorf("TransposeDist allocates %.4f objects a row, want <= 0.05", perRow)
	}
}
