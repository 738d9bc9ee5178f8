package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
)

// TestGroupReduceQuick: the distributed shuffle+reduce equals a serial
// map-based aggregation for random data, keys, rank counts, and operators.
func TestGroupReduceQuick(t *testing.T) {
	keyNames := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(120)
		p := 1 + rng.Intn(4)
		op := AggOp(rng.Intn(5))
		type rec struct {
			k string
			v float64
		}
		data := make([]rec, rows)
		for i := range data {
			data[i] = rec{keyNames[rng.Intn(len(keyNames))], float64(rng.Intn(41) - 20)}
		}
		// Serial reference.
		type agg struct {
			sum, mn, mx float64
			n           int
		}
		ref := map[string]*agg{}
		for _, r := range data {
			a := ref[r.k]
			if a == nil {
				ref[r.k] = &agg{sum: r.v, mn: r.v, mx: r.v, n: 1}
				continue
			}
			a.sum += r.v
			a.n++
			a.mn = math.Min(a.mn, r.v)
			a.mx = math.Max(a.mx, r.v)
		}
		want := func(k string) float64 {
			a := ref[k]
			switch op {
			case AggSum:
				return a.sum
			case AggCount:
				return float64(a.n)
			case AggMin:
				return a.mn
			case AggMax:
				return a.mx
			default:
				return a.sum / float64(a.n)
			}
		}
		err := comm.Run(p, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			tb := New(ctx, []Column{{"k", String}, {"v", Float}})
			for i, r := range data {
				if i%p == c.Rank() {
					tb.AppendRow(r.k, r.v)
				}
			}
			g := tb.GroupReduce("k", "v", op)
			keys, vals := g.GatherRows("k", op.String())
			if len(keys) != len(ref) {
				return fmt.Errorf("got %d keys, want %d", len(keys), len(ref))
			}
			for i, k := range keys {
				w := want(k)
				if math.Abs(vals[i]-w) > 1e-9 {
					return fmt.Errorf("op %v key %s: %g want %g", op, k, vals[i], w)
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
