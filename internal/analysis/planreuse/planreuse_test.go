package planreuse_test

import (
	"testing"

	"odinhpc/internal/analysis/analysistest"
	"odinhpc/internal/analysis/planreuse"
	"odinhpc/internal/analysis/tagcheck"
)

func TestPlanreuse(t *testing.T) {
	analysistest.Run(t, "testdata", planreuse.Analyzer, "a")
	analysistest.RunShared(t, "comm", planreuse.Analyzer, tagcheck.Analyzer)
}
