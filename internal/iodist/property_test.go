package iodist

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
)

// TestSaveLoadQuick: random shapes, random contents, random writer and
// reader rank counts and distributions — the file contract is exact.
func TestSaveLoadQuick(t *testing.T) {
	dir := t.TempDir()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		shape := make([]int, nd)
		total := 1
		for d := range shape {
			shape[d] = 1 + rng.Intn(6)
			total *= shape[d]
		}
		pw := 1 + rng.Intn(4)
		pr := 1 + rng.Intn(4)
		vals := make([]float64, total)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		path := filepath.Join(dir, fmt.Sprintf("q%d.odn", seed&0xffff))
		// Write under pw ranks.
		err := comm.Run(pw, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			x := core.FromFunc(ctx, shape, func(g []int) float64 {
				idx := 0
				for d, i := range g {
					idx = idx*shape[d] + i
				}
				return vals[idx]
			})
			return Save(x, path)
		})
		if err != nil {
			return false
		}
		// Read under pr ranks with a random distribution.
		var opt core.Options
		if rng.Intn(2) == 0 {
			opt.Kind = distmap.Cyclic
		}
		err = comm.Run(pr, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			y, err := Load[float64](ctx, path, opt)
			if err != nil {
				return err
			}
			full := y.Gather()
			i := 0
			var bad error
			full.Each(func(v float64) {
				if v != vals[i] && bad == nil {
					bad = fmt.Errorf("flat %d: %g want %g", i, v, vals[i])
				}
				i++
			})
			return bad
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
