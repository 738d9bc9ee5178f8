package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	v := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := percentile(v, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must be NaN, not a number that looks measured")
	}
	if v[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMidmean(t *testing.T) {
	// Twelve rounds, three disturbed high and three lucky low: the middle six decide.
	v := []float64{100, 1, 2, 10, 11, 12, 13, 14, 15, 3, 200, 300}
	if got := midmean(v); !near(got, 12.5) {
		t.Errorf("midmean = %g, want 12.5", got)
	}
	if got := midmean([]float64{1, 2, 3}); !near(got, 2) {
		t.Errorf("fewer than four values trim nothing: %g", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// 100 jobs of 1 ms and one 500 ms stall: the stall is the tail, not the mean.
	s := make([]float64, 100, 101)
	for i := range s {
		s[i] = 1
	}
	mean, tail := trimmedMean(append(s, 500), 0.99)
	if !near(mean, 1) || !near(tail, 500) {
		t.Errorf("trimmedMean = %g, tail %g; want 1, 500", mean, tail)
	}
	if mean, tail := trimmedMean([]float64{2, 4}, 0.99); !near(mean, 2) || !near(tail, 4) {
		t.Errorf("two values: mean %g tail %g", mean, tail)
	}
}

func TestIQRShareAndDisturbed(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if got := iqrShare(v); !near(got, 2.0/3) {
		t.Errorf("iqrShare = %g", got)
	}
	calm := []float64{10, 10.5, 11, 11.4, 10.2, 10.1, 10.3, 10.9}
	if disturbed(calm) {
		t.Error("all rounds within 15% of the fastest flagged as disturbed")
	}
	if !disturbed(append(calm[:5:5], 12, 13, 14)) {
		t.Error("three of eight rounds 15% above the fastest not flagged")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: the overlap counts once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestReconciliation(t *testing.T) {
	if got := unattributed(200, 20, 30, 130); !near(got, 0.1) {
		t.Errorf("unattributed = %g, want 0.1", got)
	}
	if got := unattributed(100, 60, 50); !near(got, -0.1) {
		t.Errorf("parts over the parent must show as negative, got %g", got)
	}
	if unattributed(0, 1) != 0 {
		t.Error("an absent parent reconciles to 0")
	}
	if got := worseBy(100, 110, "lower"); !near(got, 0.1) {
		t.Errorf("worseBy lower = %g", got)
	}
	if got := worseBy(100, 90, "higher"); !near(got, 0.1) {
		t.Errorf("worseBy higher = %g", got)
	}
	if got := worseBy(100, 110, "higher"); !near(got, -0.1) {
		t.Errorf("an improvement must be negative, got %g", got)
	}
}

// The seed picks the request bodies and never the amount of work: the
// driver counts the spread across seeds as noise.
func TestSeedChangesInputsNotWork(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every tolerance")
	}
	first := newWorkloads(1)
	for seed := int64(1); seed <= 5; seed++ {
		ws := newWorkloads(seed)
		for i, w := range ws {
			if again := newWorkloads(seed)[i]; !bytes.Equal(w.body, again.body) {
				t.Errorf("seed %d %s: same seed, different body", seed, w.name)
			}
			if seed > 1 && bytes.Equal(w.body, first[i].body) {
				t.Errorf("seed %d %s: same body as seed 1", seed, w.name)
			}
			// verifyReference fails on any change of the iteration count.
			if err := w.verifyReference(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// One run of the whole protocol, cut to two rounds of three jobs, held
// against BENCHMARK.json: every metric the contract names is emitted once
// per workload, finite, with the declared unit, and the program declares no
// metric the contract does not name.
func TestSmokeAgainstContract(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	cfg := config{
		seed: 1, seconds: 1, trace: true, rounds: 2, jobs: 3, out: out,
		probe: probeSizes{minTraced: 3, maxTraced: 3, replicaSolves: 2, replicaExprs: 3, microCalls: 20},
	}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(c.Workloads) {
		t.Fatalf("%d workloads run, BENCHMARK.json lists %d", len(res), len(c.Workloads))
	}
	for i, r := range res {
		if r.w.name != c.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, r.w.name, c.Workloads[i].Name)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", r.w.name, r.attempted, r.failed)
		}
		for _, set := range []struct {
			got  metrics
			want []contractMetric
		}{{r.e2e, c.EndToEnd}, {r.layers, c.PerLayer}} {
			if len(set.got) != len(set.want) {
				t.Errorf("%s: %d metrics emitted, contract lists %d", r.w.name, len(set.got), len(set.want))
			}
			for _, cm := range set.want {
				m, ok := set.got[cm.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", r.w.name, cm.Name)
				case m.Unit != cm.Unit:
					t.Errorf("%s: %s has unit %q, contract says %q", r.w.name, cm.Name, m.Unit, cm.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", r.w.name, cm.Name, m.Value)
				}
			}
		}
		for _, cm := range c.EndToEnd {
			if !(r.e2e[cm.Name].Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.w.name, cm.Name, r.e2e[cm.Name].Value)
			}
		}
		if len(r.e2e) != len(endToEndUnits) || len(r.layers) != len(layerUnits) {
			t.Errorf("%s: %d + %d metrics emitted, %d + %d declared", r.w.name, len(r.e2e), len(r.layers), len(endToEndUnits), len(layerUnits))
		}

		// The trace is Chrome trace_event JSON with complete events.
		data, err := os.ReadFile(filepath.Join(out, "trace-"+r.w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name, Ph string
				Ts, Dur  *float64
			}
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s trace: %v", r.w.name, err)
		}
		names := map[string]bool{}
		for _, e := range tr.TraceEvents {
			names[e.Name] = true
			if e.Ph == "X" && (e.Ts == nil || e.Dur == nil || *e.Dur < 0) {
				t.Fatalf("%s trace: event %q lacks ts or dur", r.w.name, e.Name)
			}
		}
		for _, want := range []string{"job", "client.build", "serve.http", "serve.do", "serve.job_body"} {
			if !names[want] {
				t.Errorf("%s trace: no %q span", r.w.name, want)
			}
		}
	}
	// The regimes the two solves were chosen for, as exact counts.
	small, large := res[0].layers, res[1].layers
	if small["solvers.iterations"].Value != 256 || large["solvers.iterations"].Value != 79 {
		t.Errorf("iterations %v / %v, want 256 / 79", small["solvers.iterations"].Value, large["solvers.iterations"].Value)
	}
	if s, l := small["comm.kb_per_job"].Value/small["comm.msgs_per_job"].Value, large["comm.kb_per_job"].Value/large["comm.msgs_per_job"].Value; !(l > 50*s) {
		t.Errorf("mean message %g KiB on solve_large, %g KiB on solve_small: the halo regimes are not apart", l, s)
	}
	if res[2].layers["fusion.plan_misses_per_job"].Value != 0 {
		t.Error("expr_fused misses the plan cache in a warm round")
	}
}
