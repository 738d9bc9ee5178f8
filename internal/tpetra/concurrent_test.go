package tpetra_test

// Concurrent plan application: one GatherPlan/Import per rank, built once,
// applied simultaneously from several warm communicator sessions — the
// serving pattern, where compiled plans are a cross-request cache and each
// request runs on its own congruent rank group. Every application must be
// bitwise-equal to the serial reference; under -race this is also the
// regression test for the plan-owned pack buffers that made a plan
// single-goroutine.
//
// Concurrent applies of one plan on the *same* communicator are still
// meaningless (the two value Alltoalls would cross-match); the supported
// shape exercised here is one plan shared across *distinct* congruent
// communicators, each applying it with its own data.

import (
	"fmt"
	"sync"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/tpetra"
)

// sessFill gives every (session, global) pair a distinct value so pack
// buffers crossed between sessions show up as wrong gathered values, not
// just a race report.
func sessFill(sess, g int) float64 { return float64(sess+1)*1000 + float64(g) }

// concNeeded is the deterministic request list for a rank: its halo
// neighbours plus a handful of strided globals, mixing self-owned and
// remote elements with duplicates.
func concNeeded(rank, p, n int) []int {
	m := distmap.NewBlock(n, p)
	lo, hi := m.BlockRange(rank)
	needed := []int{lo, (hi - 1 + n) % n}
	if lo > 0 {
		needed = append(needed, lo-1)
	}
	if hi < n {
		needed = append(needed, hi)
	}
	for k := 0; k < 8; k++ {
		needed = append(needed, (rank*7+k*3)%n)
	}
	return needed
}

// TestGatherPlanConcurrentApplications builds one plan per rank in a single
// session, then applies the shared plans from G concurrent warm sessions at
// once, each session carrying its own data, repeated several times per
// session. Every gathered buffer must match the pure-function reference
// bitwise.
func TestGatherPlanConcurrentApplications(t *testing.T) {
	const n = 41
	const reps = 8
	for _, p := range []int{1, 2, 4} {
		for _, g := range []int{2, 4} {
			t.Run(fmt.Sprintf("P=%d/G=%d", p, g), func(t *testing.T) {
				plans := make([]*tpetra.GatherPlan, p)
				err := comm.Run(p, func(c *comm.Comm) error {
					m := distmap.NewBlock(n, p)
					plans[c.Rank()] = tpetra.NewGatherPlan(c, m, concNeeded(c.Rank(), p, n))
					return nil
				})
				if err != nil {
					t.Fatalf("build session: %v", err)
				}

				var wg sync.WaitGroup
				errs := make([]error, g)
				for s := 0; s < g; s++ {
					wg.Add(1)
					go func(sess int) {
						defer wg.Done()
						errs[sess] = comm.Run(p, func(c *comm.Comm) error {
							m := distmap.NewBlock(n, p)
							needed := concNeeded(c.Rank(), p, n)
							local := make([]float64, m.LocalCount(c.Rank()))
							for i := range local {
								local[i] = sessFill(sess, m.LocalToGlobal(c.Rank(), i))
							}
							plan := plans[c.Rank()]
							for rep := 0; rep < reps; rep++ {
								out := make([]float64, plan.OutLen())
								plan.Gather(c, local, out)
								for i, gl := range needed {
									if want := sessFill(sess, gl); out[i] != want {
										return fmt.Errorf("session %d rank %d rep %d: out[%d] = %g, want %g",
											sess, c.Rank(), rep, i, out[i], want)
									}
								}
							}
							return nil
						})
					}(s)
				}
				wg.Wait()
				for s, err := range errs {
					if err != nil {
						t.Errorf("session %d: %v", s, err)
					}
				}
			})
		}
	}
}

// TestImportConcurrentApplications is the same property one layer up: one
// block→cyclic Import per rank shared across concurrent sessions, applied
// to session-distinct vectors, bitwise-checked against the pure reference.
func TestImportConcurrentApplications(t *testing.T) {
	const n = 37
	const reps = 6
	const g = 3
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			imports := make([]*tpetra.Import, p)
			srcMap, dstMap := distmap.NewBlock(n, p), distmap.NewCyclic(n, p)
			err := comm.Run(p, func(c *comm.Comm) error {
				imports[c.Rank()] = tpetra.NewImport(c, srcMap, dstMap)
				return nil
			})
			if err != nil {
				t.Fatalf("build session: %v", err)
			}

			var wg sync.WaitGroup
			errs := make([]error, g)
			for s := 0; s < g; s++ {
				wg.Add(1)
				go func(sess int) {
					defer wg.Done()
					errs[sess] = comm.Run(p, func(c *comm.Comm) error {
						im := imports[c.Rank()]
						src := tpetra.NewVector(c, srcMap)
						dst := tpetra.NewVector(c, dstMap)
						for i := range src.Data {
							src.Data[i] = sessFill(sess, srcMap.LocalToGlobal(c.Rank(), i))
						}
						for rep := 0; rep < reps; rep++ {
							for i := range dst.Data {
								dst.Data[i] = -1
							}
							im.Apply(src, dst)
							for i := range dst.Data {
								gl := dstMap.LocalToGlobal(c.Rank(), i)
								if want := sessFill(sess, gl); dst.Data[i] != want {
									return fmt.Errorf("session %d rank %d rep %d: dst[%d] = %g, want %g",
										sess, c.Rank(), rep, i, dst.Data[i], want)
								}
							}
						}
						return nil
					})
				}(s)
			}
			wg.Wait()
			for s, err := range errs {
				if err != nil {
					t.Errorf("session %d: %v", s, err)
				}
			}
		})
	}
}
