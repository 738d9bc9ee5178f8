//go:build timing

package comm

import (
	"testing"
	"time"
)

// TestRankFailureAbortsPromptly is the wall-clock half of
// TestRankFailureAbortsSession: the session must resolve within 100 ms of
// rank 1's failure. The bound needs the host to itself, so it builds only
// with the timing tag and runs in verify.sh's timing stage:
//
//	go test -tags timing -count=1 -run TestRankFailureAbortsPromptly ./internal/comm
func TestRankFailureAbortsPromptly(t *testing.T) {
	for _, tc := range rankFailures() {
		t.Run(tc.name, func(t *testing.T) {
			if elapsed, _ := runRankFailure(t, tc); elapsed > 100*time.Millisecond {
				t.Errorf("session resolved %v after rank 1 failed, want < 100ms", elapsed)
			}
		})
	}
}
