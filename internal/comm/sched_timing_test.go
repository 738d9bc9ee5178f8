//go:build timing

package comm_test

import (
	"testing"
	"time"
)

// TestSchedJitterRecvTimeoutPromptly is the wall-clock half of
// TestSchedJitterRecvTimeout: under jitter, the 300 ms receive deadline
// must fail the session within 10 s. The bound needs the host to itself,
// so it builds only with the timing tag and runs in verify.sh's timing
// stage:
//
//	go test -tags timing -count=1 -run TestSchedJitterRecvTimeoutPromptly ./internal/comm
func TestSchedJitterRecvTimeoutPromptly(t *testing.T) {
	if elapsed := runJitterRecvTimeout(t); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v under jitter; pressure must not starve the deadline", elapsed)
	}
}
