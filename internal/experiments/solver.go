package experiments

// The solver-stack experiments: ODIN arrays through the Trilinos-analog solvers
// (E8, ablation E-A2), Table I parity (E9) and the CG fault sweep (E11).

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"odinhpc/internal/bridge"
	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/direct"
	"odinhpc/internal/distmap"
	"odinhpc/internal/eigen"
	"odinhpc/internal/galeri"
	"odinhpc/internal/nonlinear"
	"odinhpc/internal/partition"
	"odinhpc/internal/precond"
	"odinhpc/internal/solvers"
	"odinhpc/internal/sparse"
	"odinhpc/internal/teuchos"
	"odinhpc/internal/tpetra"
)

// e8 is the paper's headline workflow: an ODIN right-hand side handed
// zero-copy to CG on 2-D Poisson under each preconditioner. A measured
// iteration is one solve from a zero guess; assembly and set-up are outside.
var e8 = Experiment{
	ID: "E8", Anchor: "§II/§V: ODIN arrays pass to PyTrilinos solvers", Exact: true,
	Cases: func() []Case {
		var cases []Case
		for _, nx := range []int{32, 64} {
			for _, p := range []int{1, 4} {
				for _, pc := range []string{"none", "jacobi", "ssor", "ilu0", "amg"} {
					cases = append(cases, Case{fmt.Sprintf("nx=%d/P=%d/%s", nx, p, pc), func(m *Meter) error {
						return comm.Run(p, func(c *comm.Comm) error {
							ctx := core.NewContext(c)
							n := nx * nx
							dm := distmap.NewBlock(n, c.Size())
							a := galeri.Laplace2DDist(c, dm, nx, nx)
							h := 1.0 / float64(nx+1)
							rhs := core.Full(ctx, h*h, []int{n}, core.Options{Map: dm})
							var prec solvers.Preconditioner
							var err error
							switch pc {
							case "jacobi":
								prec, err = precond.NewJacobi(a)
							case "ssor":
								prec, err = precond.NewSSOR(a, 1.3, 1)
							case "ilu0":
								prec, err = precond.NewILU0(a)
							case "amg":
								prec, err = precond.NewAMG(a, precond.AMGOptions{})
							}
							if err != nil {
								return err
							}
							params := teuchos.NewParameterList("s")
							params.Set("method", "cg").Set("tolerance", 1e-8).Set("max iterations", 10000)
							var res solvers.Result
							_, err = m.Loop(c, func() error {
								x := core.Zeros[float64](ctx, []int{n}, core.Options{Map: dm})
								if res, err = bridge.Solve(a, rhs, x, prec, params); err == nil && !res.Converged {
									err = fmt.Errorf("CG %v", res)
								}
								return err
							})
							if c.Rank() == 0 {
								m.Report("CGiters", float64(res.Iterations))
								m.Report("residual", res.Residual)
							}
							return err
						})
					}})
				}
			}
		}
		return cases
	},
	// The pointwise preconditioners are exactly P-independent. (The Schwarz
	// family — ssor, ilu0, amg — weakens as subdomains shrink.)
	Check: func(rows []Row) error {
		iters := map[string]float64{}
		for _, r := range rows {
			iters[r.Case] = r.Get("CGiters")
		}
		return each(func(r Row) error {
			pointwise := strings.HasSuffix(r.Case, "/none") || strings.HasSuffix(r.Case, "/jacobi")
			it, at1 := iters[r.Case], iters[strings.Replace(r.Case, "P=4", "P=1", 1)]
			return want(!pointwise || it == at1, "%g iterations against %g at P=1", it, at1)
		})(rows)
	},
}

// e9 runs a reference problem through the analog of each Table I package.
var e9 = Experiment{
	ID: "E9", Anchor: "Table I: package breadth", Exact: true,
	Cases: func() []Case {
		const p = 4
		onRanks := func(body func(c *comm.Comm) error) func() error {
			return func() error { return comm.Run(p, body) }
		}
		ones := func(c *comm.Comm, n int) (*tpetra.CrsMatrix, *tpetra.Vector, *tpetra.Vector) { // A x = 1 on the 1-D Laplacian, zero guess
			dm := distmap.NewBlock(n, c.Size())
			b := tpetra.NewVector(c, dm)
			b.PutScalar(1)
			return galeri.Laplace1DDist(c, dm), b, tpetra.NewVector(c, dm)
		}
		packages := []struct {
			pkg, module string
			check       func() error
		}{
			{"Epetra/Tpetra", "internal/tpetra", onRanks(func(c *comm.Comm) error {
				v := tpetra.NewVector(c, distmap.NewBlock(1000, c.Size()))
				v.PutScalar(2)
				return want(v.Dot(v) == 4000, "dot")
			})},
			{"EpetraExt", "tpetra + sparse + partition", func() error {
				if err := comm.Run(p, func(c *comm.Comm) error {
					x := tpetra.NewVector(c, distmap.NewBlock(300, c.Size()))
					x.FillFromGlobal(func(g int) float64 { return float64(g) })
					y := tpetra.ImportVector(x, distmap.NewCyclic(300, c.Size()))
					if y.GetGlobal(299) != 299 {
						return fmt.Errorf("import")
					}
					tpetra.ExportAdd(y, []int{0}, []float64{1}) // off-rank contributions sum at the owner
					a := galeri.ConvDiff2DDist(c, distmap.NewBlock(36, c.Size()), 6, 6, 3, 1)
					return want(a.TransposeDist().TransposeDist().GatherCSR().Equal(a.GatherCSR()), "transpose")
				}); err != nil {
					return err
				}
				m := galeri.Laplace1D(12)
				var mm strings.Builder
				if err := m.WriteMatrixMarket(&mm); err != nil {
					return err
				}
				if back, err := sparse.ReadMatrixMarket(strings.NewReader(mm.String())); err != nil || !back.Equal(m) {
					return fmt.Errorf("matrixmarket: %v", err)
				}
				g := galeri.Laplace2D(6, 6)
				return want(partition.ValidColoring(g, partition.GreedyColoring(g)), "coloring")
			}},
			{"Teuchos", "internal/teuchos", func() error {
				pl := teuchos.NewParameterList("t")
				pl.Set("tol", 1e-9).Sublist("smoother").Set("sweeps", 3)
				var doc strings.Builder
				if err := pl.WriteXML(&doc); err != nil {
					return err
				}
				back, err := teuchos.ReadXML(strings.NewReader(doc.String()))
				if err != nil {
					return fmt.Errorf("xml: %v", err)
				}
				return want(back.GetFloat("tol", 0) == 1e-9 && back.Sublist("smoother").GetInt("sweeps", 0) == 3, "paramlist xml")
			}},
			{"TriUtils", "internal/galeri + harness", func() error {
				return want(galeri.Laplace1D(10).NNZ() == 28, "gallery")
			}},
			{"Isorropia", "internal/partition", func() error {
				return want(partition.Imbalance(partition.RCB(partition.GridCoords(16, 16), 4), 4) <= 1.05, "imbalance")
			}},
			{"AztecOO", "internal/solvers", onRanks(func(c *comm.Comm) error {
				a, b, x := ones(c, 400)
				res, err := solvers.CG(a, b, x, solvers.Options{Tol: 1e-8, MaxIter: 2000})
				return want(err == nil && res.Converged, "cg: %v %v", res, err)
			})},
			{"Galeri", "internal/galeri", func() error {
				return want(galeri.Laplace3D(4, 4, 4).Rows == 64, "laplace3d")
			}},
			{"Amesos", "internal/direct", onRanks(func(c *comm.Comm) error {
				a, b, x := ones(c, 60)
				if err := direct.SolveOnce(a, b, x); err != nil {
					return err
				}
				return want(solvers.ResidualNorm(a, b, x) <= 1e-10, "residual")
			})},
			{"Ifpack", "internal/precond", onRanks(func(c *comm.Comm) error {
				a := galeri.Laplace2DDist(c, distmap.NewBlock(20*20, c.Size()), 20, 20)
				if _, err := precond.NewILU0(a); err != nil {
					return err
				}
				_, err := precond.NewSSOR(a, 1.2, 1)
				return err
			})},
			{"Komplex", "internal/dense (complex dtypes)", func() error {
				return want(dense.Sum(dense.Full[complex128](complex(1.5, 2), 4)) == complex(6, 8), "complex dtype arithmetic")
			}},
			{"Anasazi", "internal/eigen", onRanks(func(c *comm.Comm) error {
				a, _, model := ones(c, 40)
				lo, hi, err := eigen.SpectralBounds(a, model, 25)
				if err != nil {
					return err
				}
				return want(lo > 0 && hi <= 4.01, "bounds [%g %g]", lo, hi)
			})},
			{"ML", "internal/precond (AMG)", func() error {
				amg, err := precond.NewSerialAMG(galeri.Laplace2D(24, 24), precond.AMGOptions{})
				if err != nil {
					return err
				}
				return want(amg.NumLevels() >= 2, "levels")
			}},
			{"NOX", "internal/nonlinear", onRanks(func(c *comm.Comm) error {
				x := tpetra.NewVector(c, distmap.NewBlock(31, c.Size()))
				f := func(in, out *tpetra.Vector) {
					for i, v := range in.Data {
						out.Data[i] = v*v*v + v - 2
					}
				}
				rep, err := nonlinear.NewtonKrylov(f, x, nonlinear.Options{Tol: 1e-10})
				return want(err == nil && rep.Converged, "newton: %v %v", rep, err)
			})},
		}
		var cases []Case
		for _, pk := range packages {
			cases = append(cases, Case{pk.pkg, func(m *Meter) error {
				_, err := m.Loop(nil, pk.check)
				m.Note("module", pk.module)
				m.Note("status", "PASS")
				return err
			}})
		}
		return cases
	},
}

// CustomFaults (solverbench -faults) replaces E11's plan matrix when set.
var CustomFaults *comm.FaultPlan

// e11 replays one CG solve — the densest collective workload in the repo —
// under seeded fault plans. A case fails unless the solve is bitwise the
// fault-free one (solution, iterations and, for a plan that injects nothing,
// traffic) or ends in a typed comm.FaultError: never a hang or a wrong answer.
var e11 = Experiment{
	ID: "E11", Anchor: "robustness of the comm substrate every claim rides on", Exact: true,
	Cases: func() []Case {
		const n, seed = 96, 424242
		type solve struct {
			sol   []float64
			iters int
			snap  comm.StatsSnapshot
		}
		run := func(p int, plan *comm.FaultPlan) (s solve, err error) {
			stats, err := comm.RunConfig(p, comm.Config{Faults: plan}, func(c *comm.Comm) error {
				dm := distmap.NewBlock(n, c.Size())
				b := tpetra.NewVector(c, dm)
				b.FillFromGlobal(func(g int) float64 { return 1 + float64(g%7)*0.25 })
				x := tpetra.NewVector(c, dm)
				res, err := solvers.CG(galeri.Laplace1DDist(c, dm), b, x, solvers.Options{Tol: 1e-10, MaxIter: 500})
				if err != nil {
					return err
				}
				if sol := x.GatherAll(); c.Rank() == 0 {
					s.sol, s.iters = sol, res.Iterations
				}
				return nil
			})
			if stats != nil {
				s.snap = stats.Snapshot()
			}
			return s, err
		}
		var cases []Case
		for _, p := range []int{2, 4} {
			plans := []struct {
				name string
				plan *comm.FaultPlan
			}{
				{"none", nil},
				{"zero", &comm.FaultPlan{Seed: seed}},
				{"delay", &comm.FaultPlan{Seed: seed, DelayProb: 0.3, MaxDelay: 3}},
				{"reorder", &comm.FaultPlan{Seed: seed, ReorderProb: 0.5}},
				{"dup", &comm.FaultPlan{Seed: seed, DupProb: 0.25}},
				{"drop", &comm.FaultPlan{Seed: seed, DropProb: 0.2, MaxRetries: 10}},
				{"slow", &comm.FaultPlan{Seed: seed, SlowRanks: map[int]time.Duration{0: 20 * time.Microsecond}}},
				{"storm", &comm.FaultPlan{Seed: seed, DelayProb: 0.25, MaxDelay: 2, DupProb: 0.15,
					ReorderProb: 0.3, DropProb: 0.1, MaxRetries: 10}},
				{"crash", &comm.FaultPlan{Seed: seed, CrashRank: p - 1, CrashAtColl: 5}},
			}
			if CustomFaults != nil {
				plans = plans[:1]
				plans[0].name, plans[0].plan = "custom", CustomFaults
			}
			reference := sync.OnceValues(func() (solve, error) { return run(p, nil) })
			for _, pl := range plans {
				cases = append(cases, Case{fmt.Sprintf("P=%d/%s", p, pl.name), func(m *Meter) error {
					ref, err := reference()
					if err != nil {
						return fmt.Errorf("fault-free reference: %w", err)
					}
					var got solve
					outcome := "IDENTICAL"
					_, err = m.Loop(nil, func() error {
						var fe *comm.FaultError
						var failure error
						switch got, failure = run(p, pl.plan); {
						case errors.As(failure, &fe):
							outcome = "typed:" + fe.Kind.String()
						case failure != nil:
							return fmt.Errorf("untyped failure: %w", failure)
						case !reflect.DeepEqual(got.sol, ref.sol) || got.iters != ref.iters:
							return fmt.Errorf("silent divergence (%d iterations against %d)", got.iters, ref.iters)
						case !pl.plan.Active() && got.snap.TotalMsgs() != ref.snap.TotalMsgs():
							// Pay-for-use: a plan that injects nothing may not change traffic.
							return fmt.Errorf("zero-fault traffic diverged: %d messages against %d",
								got.snap.TotalMsgs(), ref.snap.TotalMsgs())
						}
						return nil
					})
					faults := "-"
					if got.snap.Faults.Any() {
						faults = got.snap.Faults.String()
					}
					m.Note("outcome", outcome)
					m.Report("CGiters", float64(got.iters))
					m.Report("msgs", float64(got.snap.TotalMsgs()))
					m.Note("faults", faults)
					return err
				}})
			}
		}
		return cases
	},
}
