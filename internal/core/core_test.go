package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
)

func onRanks(t *testing.T, ps []int, fn func(ctx *Context) error) {
	t.Helper()
	for _, p := range ps {
		err := comm.Run(p, func(c *comm.Comm) error { return fn(NewContext(c)) })
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

var sizes = []int{1, 2, 3, 4}

func TestZerosOnesFull(t *testing.T) {
	onRanks(t, sizes, func(ctx *Context) error {
		a := Zeros[float64](ctx, []int{10})
		if a.GlobalSize() != 10 || a.NDim() != 1 || a.Axis() != 0 {
			return fmt.Errorf("metadata wrong: %v", a)
		}
		if a.Local().Dim(0) != a.Map().LocalCount(ctx.Rank()) {
			return fmt.Errorf("local size wrong")
		}
		o := Full(ctx, int64(1), []int{7})
		full := o.Gather()
		for i := 0; i < 7; i++ {
			if full.At(i) != 1 {
				return fmt.Errorf("ones[%d]=%d", i, full.At(i))
			}
		}
		f := Full(ctx, 2.5, []int{5})
		if f.At(3) != 2.5 {
			return fmt.Errorf("full")
		}
		return nil
	})
}

func TestCreationDistributions(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *Context) error {
		for _, opt := range []Options{
			{},
			{Kind: distmap.Cyclic},
			{Kind: distmap.BlockCyclic, BlockSize: 2},
		} {
			a := FromFunc(ctx, []int{11}, func(g []int) float64 { return float64(g[0] * g[0]) }, opt)
			full := a.Gather()
			for i := 0; i < 11; i++ {
				if full.At(i) != float64(i*i) {
					return fmt.Errorf("kind %v: full[%d]=%g", opt.Kind, i, full.At(i))
				}
			}
		}
		// Explicit arbitrary map.
		m := distmap.NewArbitrary([]int{2, 0, 1, 0, 2, 1}, 3)
		a := FromFunc(ctx, []int{6}, func(g []int) float64 { return float64(g[0]) }, Options{Map: m})
		if a.At(4) != 4 {
			return fmt.Errorf("arbitrary map content")
		}
		return nil
	})
}

func TestCreation2DAxis(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		// Distribute a 4x6 array along axis 1.
		a := FromFunc(ctx, []int{4, 6}, func(g []int) float64 {
			return float64(10*g[0] + g[1])
		}, Options{Axis: 1})
		if a.Axis() != 1 {
			return fmt.Errorf("axis")
		}
		if a.Local().Dim(0) != 4 || a.Local().Dim(1) != 3 {
			return fmt.Errorf("local shape %v", a.Local().Shape())
		}
		full := a.Gather()
		for i := 0; i < 4; i++ {
			for j := 0; j < 6; j++ {
				if full.At(i, j) != float64(10*i+j) {
					return fmt.Errorf("full[%d,%d]=%g", i, j, full.At(i, j))
				}
			}
		}
		return nil
	})
}

func TestLinspaceMatchesSerial(t *testing.T) {
	onRanks(t, sizes, func(ctx *Context) error {
		a := Linspace[float64](ctx, 1, 2*math.Pi, 50)
		want := dense.Linspace[float64](1, 2*math.Pi, 50)
		got := a.Gather()
		for i := 0; i < 50; i++ {
			if math.Abs(got.At(i)-want.At(i)) > 1e-15 {
				return fmt.Errorf("linspace[%d]=%g want %g", i, got.At(i), want.At(i))
			}
		}
		return nil
	})
}

func TestArange(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		a := Arange[int64](ctx, 9)
		for g := 0; g < 9; g++ {
			if a.At(g) != int64(g) {
				return fmt.Errorf("arange[%d]=%d", g, a.At(g))
			}
		}
		return nil
	})
}

func TestRandomSeededPerRank(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *Context) error {
		a := Random(ctx, []int{30}, 42)
		b := Random(ctx, []int{30}, 42)
		if !slices.Equal(a.Local().Flatten(), b.Local().Flatten()) {
			return fmt.Errorf("same seed differs")
		}
		c2 := Random(ctx, []int{30}, 43)
		if a.Local().Size() > 0 && slices.Equal(a.Local().Flatten(), c2.Local().Flatten()) {
			return fmt.Errorf("different seeds identical")
		}
		full := a.Gather()
		full.Each(func(v float64) {
			if v < 0 || v >= 1 {
				panic("out of range")
			}
		})
		return nil
	})
}

func TestAtSetAt(t *testing.T) {
	onRanks(t, sizes, func(ctx *Context) error {
		a := FromFunc(ctx, []int{6, 2}, func(g []int) float64 {
			if g[0] == 4 && g[1] == 1 {
				return 7.5
			}
			return 0
		})
		if got := a.At(4, 1); got != 7.5 {
			return fmt.Errorf("At=%g", got)
		}
		if got := a.At(4, 0); got != 0 {
			return fmt.Errorf("neighbor disturbed: %g", got)
		}
		return nil
	})
}

func TestConformability(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		a := Zeros[float64](ctx, []int{10})
		b := Zeros[float64](ctx, []int{10})
		if !a.ConformableWith(b) {
			return fmt.Errorf("same layout must conform")
		}
		cyc := Zeros[float64](ctx, []int{10}, Options{Kind: distmap.Cyclic})
		if a.ConformableWith(cyc) {
			return fmt.Errorf("block vs cyclic must not conform")
		}
		shorter := Zeros[float64](ctx, []int{9})
		if a.ConformableWith(shorter) {
			return fmt.Errorf("different shapes must not conform")
		}
		return nil
	})
}

func TestCloneIndependent(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		a := Full(ctx, 1.0, []int{8})
		b := a.Clone()
		b.Local().Fill(5)
		if a.At(0) != 1 {
			return fmt.Errorf("clone aliases")
		}
		return nil
	})
}

func TestRedistributeBlockCyclic(t *testing.T) {
	onRanks(t, sizes, func(ctx *Context) error {
		n := 17
		a := FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) + 0.25 })
		for _, m := range []*distmap.Map{
			distmap.NewCyclic(n, ctx.Size()),
			distmap.NewBlockCyclic(n, ctx.Size(), 3),
			distmap.NewBlock(n, ctx.Size()),
		} {
			b := Redistribute(a, m)
			if !b.Map().SameAs(m) {
				return fmt.Errorf("map not adopted")
			}
			full := b.Gather()
			for g := 0; g < n; g++ {
				if full.At(g) != float64(g)+0.25 {
					return fmt.Errorf("%v: [%d]=%g", m, g, full.At(g))
				}
			}
		}
		return nil
	})
}

func TestRedistribute2DSlabs(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *Context) error {
		a := FromFunc(ctx, []int{7, 4}, func(g []int) float64 { return float64(100*g[0] + g[1]) })
		b := Redistribute(a, distmap.NewCyclic(7, ctx.Size()))
		full := b.Gather()
		for i := 0; i < 7; i++ {
			for j := 0; j < 4; j++ {
				if full.At(i, j) != float64(100*i+j) {
					return fmt.Errorf("[%d,%d]=%g", i, j, full.At(i, j))
				}
			}
		}
		return nil
	})
}

func TestRedistributeAxis1(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		a := FromFunc(ctx, []int{3, 8}, func(g []int) float64 { return float64(10*g[0] + g[1]) }, Options{Axis: 1})
		b := Redistribute(a, distmap.NewCyclic(8, ctx.Size()))
		full := b.Gather()
		for i := 0; i < 3; i++ {
			for j := 0; j < 8; j++ {
				if full.At(i, j) != float64(10*i+j) {
					return fmt.Errorf("[%d,%d]=%g", i, j, full.At(i, j))
				}
			}
		}
		return nil
	})
}

func TestRedistributeCost(t *testing.T) {
	onRanks(t, []int{4}, func(ctx *Context) error {
		n := 16
		a := Zeros[float64](ctx, []int{n}) // block
		// Block -> same block: zero cost.
		if got := RedistributeCost(a, distmap.NewBlock(n, 4)); got != 0 {
			return fmt.Errorf("identity cost %d", got)
		}
		// Block -> cyclic: 16 elements, each rank keeps exactly the one
		// whose cyclic owner equals its block owner -> 12 move.
		if got := RedistributeCost(a, distmap.NewCyclic(n, 4)); got != 12 {
			return fmt.Errorf("block->cyclic cost %d want 12", got)
		}
		return nil
	})
}

func TestControlMessagesAreTensOfBytes(t *testing.T) {
	// E1 core assertion: control descriptors are tiny and flow only 0->r.
	err := comm.Run(4, func(c *comm.Comm) error {
		ctx := NewContext(c)
		buf := ctx.Control(OpCreate, 1000000, 3)
		if len(buf) > 32 {
			return fmt.Errorf("control message %d bytes — not 'tens of bytes'", len(buf))
		}
		op, params := DecodeControl(buf)
		if op != OpCreate || params[0] != 1000000 || params[1] != 3 {
			return fmt.Errorf("decode: %v %v", op, params)
		}
		msgs, bytes := ctx.CtrlStats()
		if c.Rank() == 0 {
			if msgs != 3 || bytes != 3*17 {
				return fmt.Errorf("master stats %d msgs %d bytes", msgs, bytes)
			}
		} else {
			if msgs != 1 || bytes != 17 {
				return fmt.Errorf("worker stats %d msgs %d bytes", msgs, bytes)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestControlCanBeDisabled(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		ctx := NewContext(c)
		ctx.SetControlMessages(false)
		ctx.Control(OpUfunc)
		msgs, _ := ctx.CtrlStats()
		if msgs != 0 {
			return fmt.Errorf("control not disabled")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpCodeString(t *testing.T) {
	if OpCreate.String() != "create" || OpCode(99).String() == "" {
		t.Fatal("OpCode.String")
	}
}

func TestRegisterAndCallLocalHypot(t *testing.T) {
	// The paper's §III.C example: @odin.local hypot(x, y).
	onRanks(t, sizes, func(ctx *Context) error {
		ctx.RegisterLocal("hypot", func(c *comm.Comm, locals ...*dense.Array[float64]) *dense.Array[float64] {
			x, y := locals[0], locals[1]
			return dense.Binary(x, y, func(a, b float64) float64 { return math.Hypot(a, b) })
		})
		x := FromFunc(ctx, []int{12}, func(g []int) float64 { return 3 * float64(g[0]) })
		y := FromFunc(ctx, []int{12}, func(g []int) float64 { return 4 * float64(g[0]) })
		h, err := ctx.CallLocal("hypot", x, y)
		if err != nil {
			return err
		}
		for g := 0; g < 12; g++ {
			if got := h.At(g); math.Abs(got-5*float64(g)) > 1e-12 {
				return fmt.Errorf("hypot[%d]=%g", g, got)
			}
		}
		return nil
	})
}

func TestCallLocalUnknown(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		x := Zeros[float64](ctx, []int{4})
		if _, err := ctx.CallLocal("nope", x); err == nil {
			return fmt.Errorf("unknown local accepted")
		}
		return nil
	})
}

func TestCallLocalShapeMismatch(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		ctx.RegisterLocal("bad", func(c *comm.Comm, locals ...*dense.Array[float64]) *dense.Array[float64] {
			return dense.Zeros[float64](1) // wrong leading dimension
		})
		x := Zeros[float64](ctx, []int{8})
		if _, err := ctx.CallLocal("bad", x); err == nil {
			return fmt.Errorf("shape mismatch accepted")
		}
		return nil
	})
}

func TestCallLocalSideEffectOnly(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		hit := false
		ctx.RegisterLocal("touch", func(c *comm.Comm, locals ...*dense.Array[float64]) *dense.Array[float64] {
			hit = true
			return nil
		})
		x := Zeros[float64](ctx, []int{4})
		out, err := ctx.CallLocal("touch", x)
		if err != nil || out != nil {
			return fmt.Errorf("side-effect call: %v %v", out, err)
		}
		if !hit {
			return fmt.Errorf("local not invoked")
		}
		return nil
	})
}

func TestValidationPanics(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		for name, fn := range map[string]func(){
			"empty-shape": func() { Zeros[float64](ctx, nil) },
			"bad-axis":    func() { Zeros[float64](ctx, []int{4}, Options{Axis: 2}) },
			"bad-map": func() {
				Zeros[float64](ctx, []int{4}, Options{Map: distmap.NewBlock(5, ctx.Size())})
			},
		} {
			ok := func() (ok bool) {
				defer func() { ok = recover() != nil }()
				fn()
				return false
			}()
			if !ok {
				return fmt.Errorf("%s: expected panic", name)
			}
		}
		return nil
	})
}

// TestComplexAndNarrowDtypes exercises the "arbitrarily typed scalar data"
// claim of second-generation Tpetra (paper §II.C): the same distributed
// array machinery runs on complex128, float32, and int32 elements.
func TestComplexAndNarrowDtypes(t *testing.T) {
	onRanks(t, []int{1, 3}, func(ctx *Context) error {
		// Complex: create, element-wise square, gather, redistribute.
		z := FromFunc(ctx, []int{9}, func(g []int) complex128 {
			return complex(float64(g[0]), -float64(g[0]))
		})
		sq := z.WithLocal(dense.Unary(z.Local(), func(v complex128) complex128 { return v * v }))
		full := sq.Gather()
		for g := 0; g < 9; g++ {
			want := complex(float64(g), -float64(g))
			want *= want
			if full.At(g) != want {
				return fmt.Errorf("complex sq[%d]=%v want %v", g, full.At(g), want)
			}
		}
		rz := Redistribute(z, distmap.NewCyclic(9, ctx.Size()))
		if rz.At(5) != complex(5, -5) {
			return fmt.Errorf("complex redistribute")
		}
		// float32 and int32 narrow types.
		f32 := Full[float32](ctx, 1.5, []int{6})
		if f32.At(3) != 1.5 {
			return fmt.Errorf("float32")
		}
		i32 := Arange[int32](ctx, 6)
		if i32.At(5) != 5 {
			return fmt.Errorf("int32")
		}
		return nil
	})
}

func TestWithLocalValidation(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *Context) error {
		a := Zeros[float64](ctx, []int{8})
		ok := func() (ok bool) {
			defer func() { ok = recover() != nil }()
			a.WithLocal(dense.Zeros[float64](99))
			return false
		}()
		if !ok {
			return fmt.Errorf("expected panic")
		}
		// Type-changing wrap keeps distribution.
		ints := WithLocalLike[int64](a, dense.Zeros[int64](a.Local().Dim(0)))
		if ints.GlobalSize() != 8 {
			return fmt.Errorf("WithLocalLike metadata")
		}
		if a.String() == "" {
			return fmt.Errorf("String")
		}
		return nil
	})
}

func (o OpCode) String() string {
	names := map[OpCode]string{
		OpCreate: "create", OpUfunc: "ufunc", OpReduce: "reduce",
		OpSlice: "slice", OpCallLocal: "call-local", OpGather: "gather",
		OpIO: "io", OpRedistribute: "redistribute",
	}
	if s, ok := names[o]; ok {
		return s
	}
	return fmt.Sprintf("OpCode(%d)", byte(o))
}
