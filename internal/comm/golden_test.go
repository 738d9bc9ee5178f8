package comm

// Golden tests for the per-pair message matrices of every collective at
// P = 1, 2, 4, 8. The matrices pin down the communication topology of each
// algorithm (binomial trees, ring allgather, pairwise alltoall); any change
// to a collective's schedule shows up as a golden diff and must be reviewed
// deliberately. Regenerate with:
//
//	go test ./internal/comm -run TestGoldenCollectiveMatrices -update
//
// The same run also proves the pay-for-use contract of the fault layer: a
// zero-probability FaultPlan must reproduce the exact same matrices.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCollectives names each collective and a body that runs it exactly
// once with deterministic payloads (two float64 elements per rank).
var goldenCollectives = []struct {
	name string
	body func(c *Comm)
}{
	{"barrier", func(c *Comm) { c.Barrier() }},
	{"bcast", func(c *Comm) {
		Bcast(c, 0, []float64{1, 2})
	}},
	{"reduce", func(c *Comm) {
		Reduce(c, 0, []float64{float64(c.Rank()), 1}, OpSum)
	}},
	{"allreduce", func(c *Comm) {
		Allreduce(c, []float64{float64(c.Rank()), 1}, OpSum)
	}},
	{"gather", func(c *Comm) {
		Gather(c, 0, []float64{float64(c.Rank()), 1})
	}},
	{"allgather", func(c *Comm) {
		Allgather(c, []float64{float64(c.Rank()), 1})
	}},
	{"scatter", func(c *Comm) {
		var parts [][]float64
		if c.Rank() == 0 {
			for i := 0; i < c.Size(); i++ {
				parts = append(parts, []float64{float64(i), 1})
			}
		}
		Scatter(c, 0, parts)
	}},
	{"alltoall", func(c *Comm) {
		parts := make([][]float64, c.Size())
		for i := range parts {
			parts[i] = []float64{float64(c.Rank()), float64(i)}
		}
		Alltoall(c, parts)
	}},
	{"alltoallindexed", func(c *Comm) {
		// One element to every other rank, as a halo plan would: the matrix
		// must be alltoall's.
		src := []float64{float64(c.Rank())}
		idx := make([][]int, c.Size())
		for i := range idx {
			idx[i] = []int{0}
		}
		AlltoallIndexed(c, src, idx, make([]float64, 1), idx)
	}},
	{"scan", func(c *Comm) {
		Scan(c, []float64{float64(c.Rank()), 1}, OpSum)
	}},
}

// collectiveMatrix runs one collective on a fresh communicator of the given
// size and returns the rendered per-pair message matrix. A non-nil plan runs
// it through the faulty paths; a non-empty transport pins the wire.
func collectiveMatrix(t *testing.T, size int, body func(c *Comm), plan *FaultPlan, transport string) string {
	t.Helper()
	stats, err := RunConfig(size, Config{Faults: plan, Transport: transport}, func(c *Comm) error {
		body(c)
		return nil
	})
	if err != nil {
		t.Fatalf("P=%d: %v", size, err)
	}
	return stats.Snapshot().MsgMatrixString()
}

func TestGoldenCollectiveMatrices(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	var b strings.Builder
	for _, cl := range goldenCollectives {
		for _, p := range sizes {
			fmt.Fprintf(&b, "== %s P=%d ==\n", cl.name, p)
			got := collectiveMatrix(t, p, cl.body, nil, "")
			b.WriteString(got)

			// Pay-for-use: a zero-probability plan must not change the
			// traffic matrix by a single message.
			zero := &FaultPlan{Seed: 7}
			if under := collectiveMatrix(t, p, cl.body, zero, ""); under != got {
				t.Errorf("%s P=%d: zero-fault plan changed the matrix\nwithout plan:\n%swith plan:\n%s",
					cl.name, p, got, under)
			}
		}
	}
	path := filepath.Join("testdata", "collective_msg_matrices.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("collective message matrices diverged from golden; rerun with -update if intentional.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenMatricesTransportInvariant pins the transport abstraction's
// central promise: the per-pair message matrix of every collective is a
// property of the algorithm, not of the wire. Each collective must produce
// the identical matrix whether frames are enqueued in-process or encoded,
// socketed, and decoded over loopback tcp.
func TestGoldenMatricesTransportInvariant(t *testing.T) {
	for _, cl := range goldenCollectives {
		for _, p := range []int{1, 2, 4, 8} {
			inproc := collectiveMatrix(t, p, cl.body, nil, "inproc")
			tcp := collectiveMatrix(t, p, cl.body, nil, "tcp")
			if tcp != inproc {
				t.Errorf("%s P=%d: matrix differs across transports\ninproc:\n%stcp:\n%s",
					cl.name, p, inproc, tcp)
			}
		}
	}
}
