// Package stresstest is the stress corpus: every distributed kernel the
// conformance harness (internal/comm/chaostest) sweeps across its grid of
// GOMAXPROCS × exec pool size × rank count × transport × fault plan, under
// seeded scheduling pressure. It mirrors the chaos conformance suites
// (golden collectives, Split, halo exchange, Krylov solves) plus the big
// Poisson integration solve and one deliberately buggy kernel used to prove
// the harness actually catches schedule bugs. The corpus lives apart from
// the harness because it imports the packages whose own chaos suites import
// the harness.
//
// cmd/odinstress is the command-line driver; scripts/verify.sh runs the
// smoke grid under ODINHPC_STRESS=1 (the full grid is the nightly tier).
package stresstest

import (
	"fmt"

	"odinhpc/internal/bridge"
	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
	"odinhpc/internal/fusion"
	"odinhpc/internal/galeri"
	"odinhpc/internal/precond"
	"odinhpc/internal/slicing"
	"odinhpc/internal/solvers"
	"odinhpc/internal/sparse"
	"odinhpc/internal/teuchos"
	"odinhpc/internal/tpetra"
	"odinhpc/internal/ufunc"
)

// Corpus returns every registered kernel, including heavy and buggy ones.
func Corpus() []chaostest.Kernel {
	return []chaostest.Kernel{
		{Name: "collectives-all", MinRanks: 1, Body: collectivesAll},
		{Name: "split-evenodd", MinRanks: 1, Body: splitEvenOdd},
		{Name: "halo-ring", MinRanks: 1, Body: haloRing},
		{Name: "cg-laplace1d", MinRanks: 1, Body: cgLaplace1D},
		{Name: "bicgstab-laplace1d", MinRanks: 1, Body: bicgstabLaplace1D},
		{Name: "fused-deep16", MinRanks: 1, Body: fusedDeep16},
		{Name: "poisson32-cg-sell", MinRanks: 1, Body: poissonSellCG},
		{Name: "poisson128-amg-cg", MinRanks: 1, Heavy: true, Body: poissonAMGCG},
		{Name: "permuted-collectives", MinRanks: 1, Buggy: true, Body: permutedCollectives},
	}
}

// SweepKernels selects the kernels a default sweep replays: every healthy
// kernel, plus the heavy tier when asked. Buggy kernels never sweep by
// default — they are reachable only by name (Find), which is how the
// harness's own tests and `odinstress -replay` target them.
func SweepKernels(includeHeavy bool) []chaostest.Kernel {
	var out []chaostest.Kernel
	for _, k := range Corpus() {
		if k.Buggy || (k.Heavy && !includeHeavy) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// Find looks a kernel up by name across the whole corpus.
func Find(name string) (chaostest.Kernel, bool) {
	for _, k := range Corpus() {
		if k.Name == name {
			return k, true
		}
	}
	return chaostest.Kernel{}, false
}

// KernelNames lists every corpus kernel name, annotated for help output.
func KernelNames() []string {
	var out []string
	for _, k := range Corpus() {
		name := k.Name
		if k.Heavy {
			name += " (heavy)"
		}
		if k.Buggy {
			name += " (buggy, opt-in)"
		}
		out = append(out, name)
	}
	return out
}

// collectivesAll drives every collective in the fabric's repertoire once,
// folding all results into one flat payload — the stress twin of the golden
// conformance matrix.
func collectivesAll(c *comm.Comm) (any, error) {
	p, r := c.Size(), c.Rank()
	var out []float64
	c.Barrier()
	buf := make([]float64, 2)
	if r == 0 {
		buf[0], buf[1] = 3.25, -1.5
	}
	comm.Bcast(c, 0, buf)
	out = append(out, buf...)
	out = append(out, comm.Reduce(c, 0, []float64{float64(r + 1), 0.5}, comm.OpSum)...)
	out = append(out, comm.Allreduce(c, []float64{float64(r), float64(r * r)}, comm.OpMax)...)
	for _, part := range comm.Gather(c, 0, []float64{float64(r) * 1.25}) {
		out = append(out, part...)
	}
	out = append(out, comm.AllgatherFlat(c, []float64{float64(r + 7)})...)
	var parts [][]float64
	if r == 0 {
		parts = make([][]float64, p)
		for d := range parts {
			parts[d] = []float64{float64(d) * 0.75, float64(d + p)}
		}
	}
	out = append(out, comm.Scatter(c, 0, parts)...)
	a2a := make([][]float64, p)
	for d := range a2a {
		a2a[d] = []float64{float64(r*p + d)}
	}
	for _, part := range comm.Alltoall(c, a2a) {
		out = append(out, part...)
	}
	out = append(out, comm.Scan(c, []float64{1, float64(r)}, comm.OpSum)...)
	out = append(out, comm.ExclusiveScanScalar(c, float64(r+2), comm.OpSum))
	c.Barrier()
	return out, nil
}

// splitEvenOdd partitions the world into even/odd sub-communicators with a
// reversed key ordering, reduces inside each subgroup, and gathers the
// subgroup results back on the world communicator.
func splitEvenOdd(c *comm.Comm) (any, error) {
	sub := c.Split(c.Rank()%2, -c.Rank())
	subSum := comm.Allreduce(sub, []float64{float64(c.Rank() + 1)}, comm.OpSum)
	subID := float64(sub.Rank()*100 + sub.Size())
	return comm.AllgatherFlat(c, append(subSum, subID)), nil
}

// haloRing exercises the neighbor-halo and general redistribution paths of
// the slicing layer: Diff, a width-2 ShiftDiff, and a wrapping Shift.
func haloRing(c *comm.Comm) (any, error) {
	ctx := core.NewContext(c)
	const n = 29
	x := core.FromFunc(ctx, []int{n}, func(g []int) float64 {
		return float64(g[0]*g[0])*0.25 - float64(3*g[0])
	})
	d1 := slicing.Diff(x)
	d2 := slicing.ShiftDiff(x, 2)
	sh := slicing.Shift(x, 1, -7)
	out := append(d1.Gather().Flatten(), d2.Gather().Flatten()...)
	return append(out, sh.Gather().Flatten()...), nil
}

// laplace1DSystem builds the shared 1-D Poisson system of the Krylov
// kernels.
func laplace1DSystem(c *comm.Comm) (*tpetra.CrsMatrix, *tpetra.Vector, *tpetra.Vector) {
	const n = 24
	m := distmap.NewBlock(n, c.Size())
	a := galeri.Laplace1DDist(c, m)
	b := tpetra.NewVector(c, m)
	b.FillFromGlobal(func(g int) float64 { return 1 + float64(g%5)*0.125 })
	x := tpetra.NewVector(c, m)
	return a, b, x
}

func cgLaplace1D(c *comm.Comm) (any, error) {
	a, b, x := laplace1DSystem(c)
	res, err := solvers.CG(a, b, x, solvers.Options{Tol: 1e-10, MaxIter: 200, RecordHistory: true})
	if err != nil {
		return nil, err
	}
	out := append(x.GatherAll(), float64(res.Iterations), res.Residual)
	return append(out, res.History...), nil
}

func bicgstabLaplace1D(c *comm.Comm) (any, error) {
	a, b, x := laplace1DSystem(c)
	res, err := solvers.BiCGSTAB(a, b, x, solvers.Options{Tol: 1e-10, MaxIter: 200})
	if err != nil {
		return nil, err
	}
	return append(x.GatherAll(), float64(res.Iterations), res.Residual), nil
}

// fusedDeep16 drives a depth-16 multiply-add chain through the fusion
// register VM — the superinstruction pass collapses each level into one
// FMA — then folds the same expression with SumEval, so both the fused
// elementwise sweep and the fused reduction tail run under schedule jitter
// and fault plans. Results must stay bitwise identical to the
// pressure-free reference at every geometry.
func fusedDeep16(c *comm.Comm) (any, error) {
	ctx := core.NewContext(c)
	const n = 41
	x := core.FromFunc(ctx, []int{n}, func(g []int) float64 {
		return float64(g[0])/8 - 2
	})
	y := core.FromFunc(ctx, []int{n}, func(g []int) float64 {
		return 0.5 + float64(g[0]%5)*0.125
	})
	e := fusion.Var(x)
	for d := 0; d < 16; d++ {
		e = e.Mul(fusion.Var(y)).Add(fusion.Var(x))
	}
	out := fusion.Eval(e)
	s := fusion.SumEval(e)
	return append(out.Gather().Flatten(), s), nil
}

// poissonSellCG solves a 2-D Poisson system whose local blocks ride the
// SELL-C-sigma fast path: the 32x32 five-point stencil is big and even
// enough that the format auto-selector picks SELL on every rank at every
// sweep geometry (<= 8 ranks leaves >= 128 local rows), which the kernel
// asserts so the sweep provably exercises the wide format.
func poissonSellCG(c *comm.Comm) (any, error) {
	const nx = 32
	n := nx * nx
	m := distmap.NewBlock(n, c.Size())
	a := galeri.Laplace2DDist(c, m, nx, nx)
	if f := a.SpmvFormat(); f != sparse.FormatSELL {
		return nil, fmt.Errorf("poisson32-cg-sell: auto-select picked %v, want sell", f)
	}
	h := 1.0 / float64(nx+1)
	b := tpetra.NewVector(c, m)
	b.FillFromGlobal(func(g int) float64 { return h * h * (1 + float64(g%7)*0.25) })
	x := tpetra.NewVector(c, m)
	res, err := solvers.CG(a, b, x, solvers.Options{Tol: 1e-9, MaxIter: 2000, RecordHistory: true})
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("poisson32-cg-sell: %+v", res)
	}
	out := append(x.GatherAll(), float64(res.Iterations), res.Residual)
	return append(out, res.History...), nil
}

// poissonAMGCG is the suite's biggest solve — 128^2 unknowns under
// AMG-preconditioned CG — lifted from the TestLargePoissonStress
// integration test so it rides the sweep tier at every grid geometry.
func poissonAMGCG(c *comm.Comm) (any, error) {
	ctx := core.NewContext(c)
	const nx = 128
	n := nx * nx
	m := distmap.NewBlock(n, c.Size())
	a := galeri.Laplace2DDist(c, m, nx, nx)
	h := 1.0 / float64(nx+1)
	b := core.Full(ctx, h*h, []int{n}, core.Options{Map: m})
	x := core.Zeros[float64](ctx, []int{n}, core.Options{Map: m})
	prec, err := precond.NewAMG(a, precond.AMGOptions{})
	if err != nil {
		return nil, err
	}
	params := teuchos.NewParameterList("s")
	params.Set("method", "cg").Set("tolerance", 1e-9).Set("max iterations", 10000)
	res, err := bridge.Solve(a, b, x, prec, params)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("poisson128: %v", res)
	}
	tr := solvers.ResidualNorm(a, bridge.ToVector(b), bridge.ToVector(x))
	if tr > 1e-8 {
		return nil, fmt.Errorf("poisson128: true residual %g", tr)
	}
	// Physical sanity: the solution must peak near the domain center.
	peak := ufunc.ArgMax(x)
	pi, pj := peak/nx, peak%nx
	if pi < nx/4 || pi > 3*nx/4 || pj < nx/4 || pj > 3*nx/4 {
		return nil, fmt.Errorf("poisson128: peak at (%d,%d), expected central", pi, pj)
	}
	return []float64{float64(res.Iterations), res.Residual, tr, float64(peak)}, nil
}

// permutedCollectives is the deliberate schedule bug: even and odd ranks
// issue the same two collectives in opposite orders, so at each sequence
// number one side waits in a Bcast and the other in a Gather, and every rank
// blocks on a tag its peers never send. At P=1 there are no peers and the
// kernel passes; at P>=2 it deadlocks, which comm's detector fails at once
// on inproc with a FaultDeadlock naming both collectives (the harness's
// armed RecvTimeout turns it into a FaultTimeout on tcp).
func permutedCollectives(c *comm.Comm) (any, error) {
	vals := []float64{float64(c.Rank()) * 1.5}
	buf := make([]float64, 1)
	if c.Rank() == 0 {
		buf[0] = 42
	}
	if c.Rank()%2 == 0 {
		comm.Bcast(c, 0, buf)
		comm.Gather(c, 0, vals)
	} else {
		comm.Gather(c, 0, vals)
		comm.Bcast(c, 0, buf)
	}
	return buf, nil
}
