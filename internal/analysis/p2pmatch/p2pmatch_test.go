package p2pmatch_test

import (
	"testing"

	"odinhpc/internal/analysis/analysistest"
	"odinhpc/internal/analysis/p2pmatch"
)

func TestP2PMatch(t *testing.T) {
	analysistest.Run(t, "testdata", p2pmatch.Analyzer, "a", "loops", "wild", "allow", "comm")
}
