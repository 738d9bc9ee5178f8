package tracepair_test

import (
	"testing"

	"odinhpc/internal/analysis/analysistest"
	"odinhpc/internal/analysis/tracepair"
)

func TestTracepair(t *testing.T) {
	analysistest.Run(t, "testdata", tracepair.Analyzer, "a")
}
