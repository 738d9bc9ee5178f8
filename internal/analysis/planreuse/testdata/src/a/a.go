// Package a exercises planreuse: methods of types with per-instance owned
// scratch (CrsMatrix) invoked from goroutines on shared values are flagged;
// shared *plans* (GatherPlan, Import) are the sanctioned serving pattern and
// must stay quiet, as do same-goroutine use, goroutine-local instances, and
// //lint:allow exceptions.
package a

import "tpetra"

func sharedMatrix(a *tpetra.CrsMatrix, x, y []float64) {
	go func() {
		a.Apply(x, y) // want `goroutine-shared`
	}()
	go a.Apply(x, y) // want `goroutine-shared`
	// Passing the matrix as a parameter still shares its Apply scratch.
	go func(m *tpetra.CrsMatrix) {
		m.Apply(x, y) // want `goroutine-shared`
	}(a)

	a.Apply(x, y) // spawning goroutine's own use: fine

	go func() {
		local := tpetra.NewMatrix()
		local.Apply(x, y) // goroutine-local matrix: fine
	}()

	go func() {
		//lint:allow planreuse Applies serialized by the group's job loop
		a.Apply(x, y)
	}()
}

// sharedPlans is the negative control for the relaxed contract: one compiled
// plan applied from many goroutines is the cross-request cache odinserve
// relies on — concurrency-safe since plan application moved to pooled
// per-call scratch — and must not be flagged.
func sharedPlans(plan *tpetra.GatherPlan, im *tpetra.Import, x []float64) {
	go func() {
		plan.Gather(x) // pooled per-call scratch: fine
	}()
	go plan.Gather(x) // fine
	go func() {
		im.Apply(x) // fine
	}()
	go func(p *tpetra.GatherPlan) {
		p.Gather(x) // fine
	}(plan)
}
