package iodist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
)

func TestSaveLoadRoundTrip1D(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []int{1, 2, 3, 4} {
		path := filepath.Join(dir, fmt.Sprintf("a%d.odn", p))
		err := comm.Run(p, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			x := core.FromFunc(ctx, []int{37}, func(g []int) float64 { return float64(g[0]) * 1.5 })
			if err := Save(x, path); err != nil {
				return err
			}
			y, err := Load[float64](ctx, path)
			if err != nil {
				return err
			}
			full := y.Gather()
			for g := 0; g < 37; g++ {
				if full.At(g) != float64(g)*1.5 {
					return fmt.Errorf("[%d]=%g", g, full.At(g))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestSaveLoadAcrossRankCounts(t *testing.T) {
	// Write with 4 ranks, read with 3 and 1: the file format is
	// distribution-independent.
	dir := t.TempDir()
	path := filepath.Join(dir, "cross.odn")
	err := comm.Run(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		x := core.FromFunc(ctx, []int{50}, func(g []int) float64 { return float64(g[0] * g[0]) })
		return Save(x, path)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		err := comm.Run(p, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			y, err := Load[float64](ctx, path)
			if err != nil {
				return err
			}
			if y.GlobalSize() != 50 {
				return fmt.Errorf("size %d", y.GlobalSize())
			}
			for g := 0; g < 50; g++ {
				if y.At(g) != float64(g*g) {
					return fmt.Errorf("[%d]=%g", g, y.At(g))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("read p=%d: %v", p, err)
		}
	}
}

func TestSaveLoad2D(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.odn")
	err := comm.Run(3, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		x := core.FromFunc(ctx, []int{7, 4}, func(g []int) float64 { return float64(100*g[0] + g[1]) })
		if err := Save(x, path); err != nil {
			return err
		}
		y, err := Load[float64](ctx, path, core.Options{Kind: distmap.Cyclic})
		if err != nil {
			return err
		}
		full := y.Gather()
		for i := 0; i < 7; i++ {
			for j := 0; j < 4; j++ {
				if full.At(i, j) != float64(100*i+j) {
					return fmt.Errorf("[%d,%d]=%g", i, j, full.At(i, j))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadInt64(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "i.odn")
	err := comm.Run(2, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		x := core.Arange[int64](ctx, 20)
		if err := Save(x, path); err != nil {
			return err
		}
		y, err := Load[int64](ctx, path)
		if err != nil {
			return err
		}
		for g := 0; g < 20; g++ {
			if y.At(g) != int64(g) {
				return fmt.Errorf("[%d]=%d", g, y.At(g))
			}
		}
		// Loading with the wrong dtype fails cleanly on every rank.
		if _, err := Load[float64](ctx, path); err == nil {
			return fmt.Errorf("dtype mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadCyclicSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.odn")
	err := comm.Run(3, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		x := core.FromFunc(ctx, []int{17}, func(g []int) float64 { return float64(g[0]) },
			core.Options{Kind: distmap.Cyclic})
		if err := Save(x, path); err != nil {
			return err
		}
		y, err := Load[float64](ctx, path)
		if err != nil {
			return err
		}
		for g := 0; g < 17; g++ {
			if y.At(g) != float64(g) {
				return fmt.Errorf("[%d]=%g", g, y.At(g))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	err := comm.Run(2, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		if _, err := Load[float64](ctx, filepath.Join(dir, "missing.odn")); err == nil {
			return fmt.Errorf("missing file accepted")
		}
		// Corrupt magic.
		bad := filepath.Join(dir, "bad.odn")
		if c.Rank() == 0 {
			os.WriteFile(bad, []byte("NOPEnopenopenopenope"), 0o644)
		}
		c.Barrier()
		if _, err := Load[float64](ctx, bad); err == nil {
			return fmt.Errorf("bad magic accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaveUnsupportedType(t *testing.T) {
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		x := core.Zeros[float32](ctx, []int{4})
		if err := Save(x, "/tmp/nope.odn"); err == nil {
			return fmt.Errorf("float32 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaveCreateFailurePropagates(t *testing.T) {
	err := comm.Run(3, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		x := core.Zeros[float64](ctx, []int{4})
		// Directory that does not exist: rank 0 fails, all ranks must
		// return an error rather than deadlock.
		if err := Save(x, "/nonexistent-dir-odin/x.odn"); err == nil {
			return fmt.Errorf("expected create failure")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
