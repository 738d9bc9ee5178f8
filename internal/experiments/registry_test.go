package experiments

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestClaims holds every Exact experiment — the ones whose metrics are
// counts that repeat run to run — to its claim, so the reproduced paper
// claims are tests: E1 control bytes per op per worker, E3 chooser-is-min,
// E4 halo and slice bytes independent of N, E8 pointwise preconditioners
// P-independent, E9 13 of 13 packages, E10 master bytes a vanishing share,
// E11 bitwise-or-typed under faults, E13 P-1 halo messages of 8k bytes.
func TestClaims(t *testing.T) {
	for _, e := range All {
		if !e.Exact {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			var table strings.Builder
			err := Table(&table, e)
			t.Log("\n" + table.String())
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTableReportsFailures registers deliberately failing experiments: a
// broken claim and a broken case must both show in the table and come back
// as an error, and a sound experiment must not.
func TestTableReportsFailures(t *testing.T) {
	row := func(v float64) Case {
		return Case{"P=2", func(m *Meter) error {
			_, err := m.Loop(nil, func() error { return nil })
			m.Report("ctrlB/op/worker", v)
			return err
		}}
	}
	claim := each(func(r Row) error {
		return want(r.Get("ctrlB/op/worker") <= 64 && r.Dim("P") == 2, "control message too large")
	})
	boom := Case{"P=4", func(*Meter) error { return errors.New("rank 3 crashed") }}
	for _, tc := range []struct {
		name  string
		cases []Case
		want  []string // substrings of the table; the last is the error's, "" for none
	}{
		{"sound", []Case{row(9)}, []string{"ctrlB/op/worker", "claim holds.", ""}},
		{"claim", []Case{row(4096)}, []string{"4096", "claim FAILED: P=2: control message too large", "control message too large"}},
		{"case", []Case{row(9), boom}, []string{"FAIL: rank 3 crashed", "claim FAILED", "1 of 2 cases failed"}},
	} {
		var table strings.Builder
		err := Table(&table, Experiment{ID: "E0", Anchor: "a claim that fails", Exact: true,
			Cases: func() []Case { return tc.cases }, Check: claim})
		for _, s := range tc.want[:len(tc.want)-1] {
			if !strings.Contains(table.String(), s) {
				t.Errorf("%s: table lacks %q:\n%s", tc.name, s, table.String())
			}
		}
		switch wantErr := tc.want[len(tc.want)-1]; {
		case wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, wantErr)
		}
	}
}

// TestRegistryMatchesDocs: an experiment cannot be added or dropped in only
// one place. Every registry ID has an "## E<n> —" (or "###") heading in
// EXPERIMENTS.md and a row in DESIGN.md's experiment index, and vice versa;
// IDs are unique.
func TestRegistryMatchesDocs(t *testing.T) {
	ids := func(file, pattern string) map[string]bool {
		raw, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(string(raw), -1) {
			found[m[1]] = true
		}
		return found
	}
	registry := map[string]bool{}
	for _, e := range All {
		if registry[e.ID] {
			t.Errorf("registry lists %s twice", e.ID)
		}
		registry[e.ID] = true
	}
	for where, documented := range map[string]map[string]bool{
		"heading in EXPERIMENTS.md":           ids("EXPERIMENTS.md", `(?m)^###? (E\d+[a-z]?) — `),
		"row in DESIGN.md's experiment index": ids("DESIGN.md", `(?m)^\| (E\d+[a-z]?) \|`),
	} {
		for id := range registry {
			if !documented[id] {
				t.Errorf("registry experiment %s has no %s", id, where)
			}
		}
		for id := range documented {
			if !registry[id] {
				t.Errorf("%s has a %s but is not in the registry", id, where)
			}
		}
	}
}
