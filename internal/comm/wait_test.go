package comm

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// These tests hold the gates in front of waitMsg's spin by what they must
// guarantee whatever the clock says; wait_timing_test.go (build tag timing,
// verify.sh's timing stage) covers what depends on it. The ranks compute
// with benchWork (~100 us), long enough to pass the gap test, so that only
// the gate under test can refuse the spin.

// Tags of the messages these tests exchange.
const (
	tagWaitRing = 902
	tagWaitLate = 903
)

// TestNoSpinOnOneProc: with one processor the cap is zero, so no receive
// spins, however long the rank computed before it.
func TestNoSpinOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := spinners.attempts.Load()
	stats, err := RunConfig(4, Config{Transport: "inproc"}, func(c *Comm) error {
		x := float64(c.Rank())
		for i := 0; i < 50; i++ {
			x = benchWork(x)
			x = AllreduceScalar(c, x, OpMax)
			c.Barrier()
			c.SendRecv((c.Rank()+1)%c.Size(), []float64{x}, (c.Rank()+c.Size()-1)%c.Size(), tagWaitRing)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := spinners.attempts.Load() - before; n != 0 {
		t.Errorf("%d receives spun at GOMAXPROCS=1, want 0", n)
	}
	if snap := stats.Snapshot(); snap.RecvSpinHits != 0 || snap.RecvParks == 0 {
		t.Errorf("RecvSpinHits=%d RecvParks=%d at GOMAXPROCS=1, want 0 and >0", snap.RecvSpinHits, snap.RecvParks)
	}
}

// TestSpinnerCapOversubscribed: eight ranks on two processors may have one
// spinner at a time, never two, and with the spin live every collective
// still produces its golden message matrix.
func TestSpinnerCapOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spinners.peak.Store(0)
	before := spinners.attempts.Load()
	if _, err := RunConfig(8, Config{Transport: "inproc"}, func(c *Comm) error {
		x := float64(c.Rank())
		for i := 0; i < 50; i++ {
			x = AllreduceScalar(c, benchWork(x), OpMax)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "collective_msg_matrices.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range goldenCollectives {
		got := "== " + cl.name + " P=8 ==\n" + collectiveMatrix(t, 8, cl.body, nil, "")
		if !strings.Contains(string(want), got) {
			t.Errorf("%s at P=8 on two processors diverged from the golden matrix:\n%s", cl.name, got)
		}
	}
	if spinners.attempts.Load() == before {
		t.Error("no receive spun: the cap was not exercised")
	}
	if peak := spinners.peak.Load(); peak > 1 {
		t.Errorf("%d receivers spun at once at GOMAXPROCS=2, want at most 1", peak)
	}
}

// TestExpiredSpinsBackOff: a rank whose peer is always later than the spin
// lasts stops paying for the spin. Its spins sit out 1, 3, 7, ... waits after
// each expiry, so 64 such waits begin six of them, not 64.
func TestExpiredSpinsBackOff(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := spinners.attempts.Load()
	stats, err := RunConfig(2, Config{Transport: "inproc"}, func(c *Comm) error {
		x := 1.0
		for i := 0; i < 64; i++ {
			if c.Rank() == 0 {
				x = benchWork(x)
				Recv[byte](c, 1, tagWaitLate)
			} else {
				time.Sleep(8 * spinBudget)
				Send(c, 0, tagWaitLate, []byte{1})
			}
		}
		if c.Rank() == 0 {
			benchSink = x
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Six if every spin expires; a spin that happens to catch a message (the
	// receiver was held up until just before it came) starts the count over.
	if n := spinners.attempts.Load() - before; n < 4 || n > 16 {
		t.Errorf("%d of 64 hopeless waits began a spin, want about 6", n)
	}
	if snap := stats.Snapshot(); snap.RecvParks < 48 {
		t.Errorf("RecvParks=%d RecvSpinHits=%d, want nearly all 64 waits parked", snap.RecvParks, snap.RecvSpinHits)
	}
}

// TestSpinDecisionScripted drives waitMsg's spin decision with scripted gaps
// and slot outcomes, no clock involved: a gap of spinMinGap or less parks,
// so does a wait with no free slot, and a rank whose spins all expire sits
// out 1, 3, 7, ... 63 waits after each, however long its gaps.
func TestSpinDecisionScripted(t *testing.T) {
	var b spinBackoff
	for _, gap := range []time.Duration{0, time.Microsecond, 4 * time.Microsecond, spinMinGap} {
		if spin, next := b.decide(gap, true); spin || next != b {
			t.Errorf("gap %v: spin=%v next=%+v, want a park with the state unchanged", gap, spin, next)
		}
	}
	if spin, next := b.decide(time.Millisecond, false); spin || next != b {
		t.Errorf("no free slot: spin=%v next=%+v, want a park with the state unchanged", spin, next)
	}

	// Every spin expires: count the waits sat out between spins.
	var skipped []int
	run := -1
	for i := 0; i < 300; i++ {
		gap := spinMinGap + time.Nanosecond
		if i%2 == 1 {
			gap = 0 // a short gap does not shorten the back-off
		}
		spin, next := b.decide(gap, true)
		if spin != (b.skip == 0 && gap > spinMinGap) {
			t.Fatalf("wait %d: spin=%v from %+v at gap %v", i, spin, b, gap)
		}
		b = next
		switch {
		case spin && run >= 0:
			skipped = append(skipped, run)
			run = 0
		case spin:
			run = 0
		case run >= 0:
			run++
		}
	}
	want := []int{1, 3, 7, 15, 31, 63, 63, 63}
	if len(skipped) < len(want) || !slices.Equal(skipped[:len(want)], want) {
		t.Fatalf("waits sat out between expired spins = %v, want %v first", skipped, want)
	}

	// waitMsg resets the state to zero after a spin that found its message;
	// from there the next long gap spins at once.
	b = spinBackoff{}
	if spin, _ := b.decide(time.Millisecond, true); !spin {
		t.Fatal("a long gap with a free slot and no back-off must spin")
	}
}
