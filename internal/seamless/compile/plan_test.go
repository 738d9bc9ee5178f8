package compile

// A compiled array kernel is analyzed once: its closure keeps a fusion.Plan,
// and a warm call only binds the frame's arrays and sweeps them. These tests
// pin what that promises — no lowering and no plan-cache lookup per call, so
// a call costs the same whatever the expression's depth — and that the
// sweep is the traced one every other fusion plan runs.

import (
	"testing"

	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/exec"
	"odinhpc/internal/fusion"
	"odinhpc/internal/seamless"
	"odinhpc/internal/trace"
)

// chainKernel is `a * (chain)` with a Horner chain of depth multiply-adds
// over two arrays and a runtime scalar a.
func chainKernel(depth int) string {
	chain := "x"
	for i := 0; i < depth; i++ {
		chain = "(" + chain + ") * y + x"
	}
	return "def k(a, x, y):\n    return a * (" + chain + ")\n"
}

// TestCompiledKernelWarmCallAllocs pins a warm call of a compiled array
// kernel at n = 4096 on a one-worker engine: the same objects at chain depth
// 1, 4 and 16, and not one plan-cache hit or miss — the call binds its
// arrays and runs the plan its kernel was compiled with.
func TestCompiledKernelWarmCallAllocs(t *testing.T) {
	if alloctest.RaceEnabled || trace.Active() != nil {
		t.Skip("allocation counts are not exact under the race detector or a trace session")
	}
	old := exec.Default()
	defer exec.SetDefault(old)
	exec.SetDefault(exec.New(exec.WithWorkers(1)))
	const n = 4096
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i%13)-6, 1/float64(i+1)
	}
	allocs := map[int]float64{}
	for _, depth := range []int{1, 4, 16} {
		prog, err := seamless.CompileSource(chainKernel(depth))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(prog)
		call := func() {
			if _, err := e.Call("k", seamless.FloatV(0.5), seamless.ArrFV(x), seamless.ArrFV(y)); err != nil {
				t.Fatal(err)
			}
		}
		fusion.ResetPlanCache()
		call() // compiles the kernel and analyzes its plan
		hits0, misses0 := fusion.PlanCacheStats()
		if hits0 != 0 || misses0 != 1 {
			t.Fatalf("depth %d: compiling the kernel gave %d plan-cache hits and %d misses, want one fresh plan", depth, hits0, misses0)
		}
		allocs[depth] = testing.AllocsPerRun(200, call)
		if hits, misses := fusion.PlanCacheStats(); hits != hits0 || misses != misses0 {
			t.Errorf("depth %d: warm calls moved the plan cache: hits %d -> %d, misses %d -> %d",
				depth, hits0, hits, misses0, misses)
		}
	}
	t.Logf("objects per warm call at depth 1/4/16: %v / %v / %v", allocs[1], allocs[4], allocs[16])
	if allocs[4] != allocs[1] || allocs[16] != allocs[1] {
		t.Errorf("objects per warm call grow with the expression: %v / %v / %v at depth 1/4/16, want equal",
			allocs[1], allocs[4], allocs[16])
	}
}

// TestCompiledKernelTracesItsPlan pins that a compiled kernel's sweep is a
// fusion plan's sweep: under an active trace session each call records a
// KindVM span on the process lane, labelled with the plan key of the
// kernel's slot template, covering the whole array.
func TestCompiledKernelTracesItsPlan(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	exec.SetDefault(exec.New(exec.WithWorkers(1)))
	prog, err := seamless.CompileSource("def saxpy(a, x, y):\n    return a * x + y\n")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	const n = 100
	x, y := make([]float64, n), make([]float64, n)

	prev := trace.Active()
	defer trace.Install(prev)
	own := trace.Start(1 << 10)
	spans := func(run func()) []trace.Event {
		seen := own.Len()
		run()
		var vm []trace.Event
		for _, ev := range own.Events()[seen:] {
			if ev.Kind == trace.KindVM {
				vm = append(vm, ev)
			}
		}
		return vm
	}
	// The plan a kernel `a * x + y` analyzes: scalar slot 0, slice slots 0, 1.
	ref := fusion.Analyze(fusion.ScalarSlot(0).Mul(fusion.SliceSlot(0)).Add(fusion.SliceSlot(1)))
	want := spans(func() { ref.ExecuteSlots(make([]float64, n), [][]float64{x, y}, []float64{2}) })
	if len(want) != 1 || want[0].Label == "" {
		t.Fatalf("reference slot plan recorded VM spans %v, want one with a plan label", want)
	}
	for call := 0; call < 2; call++ {
		got := spans(func() {
			if _, err := e.Call("saxpy", seamless.FloatV(2), seamless.ArrFV(x), seamless.ArrFV(y)); err != nil {
				t.Fatal(err)
			}
		})
		if len(got) != 1 {
			t.Fatalf("call %d recorded %d VM spans, want 1", call, len(got))
		}
		if ev := got[0]; ev.Label != want[0].Label || ev.Rank != -1 || ev.A != 0 || ev.B != n {
			t.Errorf("call %d: VM span label %q rank %d over [%d, %d), want label %q rank -1 over [0, %d)",
				call, ev.Label, ev.Rank, ev.A, ev.B, want[0].Label, n)
		}
	}
}
