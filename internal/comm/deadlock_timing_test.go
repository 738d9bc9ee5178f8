//go:build timing

package comm_test

import (
	"testing"
	"time"

	"odinhpc/internal/comm"
)

// TestDeadlockDetectedPromptly is the wall-clock half of TestDeadlockCorpus's
// recv-before-send ring: with a zero Config (no receive deadline), the
// session must fail with FaultDeadlock within 100 ms. The bound needs the
// host to itself, so it builds only with the timing tag and runs in
// verify.sh's timing stage:
//
//	go test -tags timing -count=1 -run TestDeadlockDetectedPromptly ./internal/comm
func TestDeadlockDetectedPromptly(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		start := time.Now()
		_, err := runWatched(p, comm.Config{Transport: "inproc"}, recvBeforeSendRing)
		elapsed := time.Since(start)
		checkDeadlock(t, p, err, ringBlocked(p))
		if elapsed > 100*time.Millisecond {
			t.Errorf("P=%d: deadlock detected after %v, want < 100ms", p, elapsed)
		}
	}
}
