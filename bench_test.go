// The root benchmark times every case of the experiment registry
// (internal/experiments: E1-E14 and the ablations of EXPERIMENTS.md) under
// testing.B: b.N iterations of each measured region, the case's metrics as
// custom units. `go run ./cmd/solverbench` prints the same cases as tables.
//
// Run: go test -run XXX -bench Experiment -benchmem . (one row: -bench 'Experiment/E8/nx=32/P=4/amg')
package odinhpc

import (
	"testing"

	"odinhpc/internal/experiments"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All {
		for _, c := range e.Cases() {
			b.Run(e.ID+"/"+c.Name, func(b *testing.B) {
				res, err := c.Run(b.N, b)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range res.Metrics {
					if m.Text == "" {
						b.ReportMetric(m.Value, m.Name)
					}
				}
			})
		}
	}
}
