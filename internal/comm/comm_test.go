package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// sizes exercised by most collective tests, including non-powers of two.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

// Named point-to-point tags for the tests in this package (shared with
// split_test.go). tagcheck (odinvet) requires message tags to be named
// constants so collisions with the reserved ranges registered in
// internal/analysis/tagregistry stay visible at the declaration site.
const (
	tagData   = 0 // primary data stream
	tagCtl    = 1 // secondary stream paired with tagData
	tagAux    = 2 // third stream (worker <-> worker legs)
	tagSelLo  = 3 // tag-selectivity triple, received lo..hi
	tagSelMid = 4
	tagSelHi  = 5
	tagPing   = 7  // one-off payload exchanges
	tagProbe  = 9  // probe/RecvMsg pairing
	tagXchg   = 11 // SendRecv exchange
	tagSelf   = 42 // send-to-self loopback
)

func TestRunInvalidSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) should fail")
	}
	if err := Run(-3, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run(-3) should fail")
	}
}

func TestRunRankIdentity(t *testing.T) {
	var seen int64
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("size = %d", c.Size())
		}
		atomic.AddInt64(&seen, 1<<uint(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 0xff {
		t.Fatalf("ranks seen bitmap = %#x, want 0xff", seen)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank 3 failed")
	err := Run(5, func(c *Comm) error {
		if c.Rank() == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

// TestRankFailureAbortsSession pins MPI's abort-the-job default on a plain
// session — no fault plan and no RecvTimeout, so no receive deadline: rank 0
// blocks in Barrier while rank 1 fails, and the session must resolve with
// rank 1's own error, not a FaultPeerFailed echo. How soon it resolves is a
// wall-clock bound, TestRankFailureAbortsPromptly (timing tag).
func TestRankFailureAbortsSession(t *testing.T) {
	for _, tc := range rankFailures() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := runRankFailure(t, tc); !tc.want(err) {
				t.Fatalf("err = %v, want rank 1's own error", err)
			}
		})
	}
}

// rankFailure is one way for rank 1 to fail while rank 0 waits in a Barrier.
type rankFailure struct {
	name string
	body func(c *Comm, failAt *atomic.Int64) error
	want func(error) bool
}

func rankFailures() []rankFailure {
	sentinel := errors.New("rank 1 failed")
	isSentinel := func(err error) bool { return err == sentinel }
	return []rankFailure{
		{"error", func(c *Comm, failAt *atomic.Int64) error {
			return failOrBarrier(c, c, failAt, func() error { return sentinel })
		}, isSentinel},
		{"panic", func(c *Comm, failAt *atomic.Int64) error {
			return failOrBarrier(c, c, failAt, func() error { panic("boom") })
		}, func(err error) bool { return err != nil && err.Error() == "comm: rank 1 panicked: boom" }},
		{"split", func(c *Comm, failAt *atomic.Int64) error {
			return failOrBarrier(c, c.Split(0, c.Rank()), failAt, func() error { return sentinel })
		}, isSentinel},
	}
}

// runRankFailure runs tc's session and returns how long after rank 1 failed
// it resolved, and its error. The watchdog turns a stranded session into a
// failure instead of a hang.
func runRankFailure(t *testing.T, tc rankFailure) (time.Duration, error) {
	t.Helper()
	var failAt atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := RunConfig(2, Config{}, func(c *Comm) error { return tc.body(c, &failAt) })
		done <- err
	}()
	select {
	case err := <-done:
		return time.Duration(time.Now().UnixNano() - failAt.Load()), err
	case <-time.After(5 * time.Second):
		t.Fatal("rank 0 still blocked in Barrier 5s after rank 1 failed: the session was stranded")
		return 0, nil
	}
}

// failOrBarrier is one rank of a rankFailure: rank 1 of c
// waits until rank 0 has had time to park in sub's Barrier, stamps failAt and
// fails; rank 0 waits in the Barrier, which only the session abort ends.
func failOrBarrier(c, sub *Comm, failAt *atomic.Int64, fail func() error) error {
	if c.Rank() == 1 {
		time.Sleep(20 * time.Millisecond)
		failAt.Store(time.Now().UnixNano())
		return fail()
	}
	sub.Barrier()
	return nil
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, tagPing, []float64{1, 2, 3})
			return nil
		}
		got := Recv[float64](c, 0, tagPing)
		want := []float64{1, 2, 3}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("got %v want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesSlices(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			Send(c, 1, tagData, buf)
			buf[0] = 99 // must not be visible at receiver
			Send(c, 1, tagCtl, []byte{1})
			return nil
		}
		got := Recv[float64](c, 0, tagData)
		Recv[byte](c, 0, tagCtl)
		if got[0] != 1 {
			return fmt.Errorf("receiver saw sender mutation: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendCopiesEverySliceType sends a non-trivial and a nil slice of every
// kind of the payload set (codecPayloads), on both transports. Rank 0
// overwrites each sent buffer after Send returns and only then meets rank 1
// at a barrier; rank 1 must still see the values that were sent, and each
// nil slice must arrive empty and non-nil, of its own type.
func TestSendCopiesEverySliceType(t *testing.T) {
	const nKinds = len(kinds) - 1
	var full []any
	for _, p := range codecPayloads {
		if reflect.ValueOf(p).Len() > 1 {
			full = append(full, p)
		}
	}
	if len(full) != nKinds {
		t.Fatalf("%d non-trivial codecPayloads for %d payload kinds", len(full), nKinds)
	}
	for _, tr := range []string{"inproc", "tcp"} {
		_, err := RunConfig(2, Config{Transport: tr}, func(c *Comm) error {
			if c.Rank() == 0 {
				for i := range nKinds {
					v := reflect.ValueOf(full[i])
					buf := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
					reflect.Copy(buf, v)
					payloadOf(buf.Interface()).send(c, 1, tagData)
					payloadOf(reflect.Zero(v.Type()).Interface()).send(c, 1, tagCtl)
					buf.Index(0).Set(buf.Index(1))
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				return nil
			}
			for i := range nKinds {
				p := full[i]
				if got := payloadOf(p).recv(c, 0, tagData); !reflect.DeepEqual(got, p) {
					return fmt.Errorf("%T: receiver saw %v, want %v", p, got, p)
				}
				got := reflect.ValueOf(payloadOf(p).recv(c, 0, tagCtl))
				if got.Type() != reflect.TypeOf(p) || got.IsNil() || got.Len() != 0 {
					return fmt.Errorf("nil %T arrived as %#v, want an empty non-nil slice", p, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
	}
}

func TestRecvTagSelectivity(t *testing.T) {
	// Messages must be matched by tag even when delivered out of order.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, tagSelHi, []int{tagSelHi})
			Send(c, 1, tagSelMid, []int{tagSelMid})
			Send(c, 1, tagSelLo, []int{tagSelLo})
			return nil
		}
		for _, tag := range []int{tagSelLo, tagSelMid, tagSelHi} {
			got := Recv[int](c, 0, tag)
			if got[0] != tag {
				return fmt.Errorf("tag %d delivered %v", tag, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() != 0 {
			Send(c, 0, 100+c.Rank(), []int{c.Rank()})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			src, tag, data := RecvMsg[int](c, AnySource, AnyTag)
			v := data[0]
			if v != src || tag != 100+src {
				return fmt.Errorf("envelope mismatch: src %d tag %d payload %v", src, tag, data)
			}
			seen[v] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("saw %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, tagProbe, []int{1})
			return nil
		}
		// Wait for the message to arrive, then probe.
		Recv[int](c, 0, tagProbe)
		if c.Probe(0, tagProbe) {
			return errors.New("Probe true after queue drained")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		other := 1 - c.Rank()
		Send(c, other, tagXchg, []int{c.Rank()})
		got := Recv[int](c, other, tagXchg)
		if got[0] != other {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		Send(c, 5, tagData, []int{1})
		return nil
	})
	if err == nil {
		t.Fatal("Send to invalid rank should panic and be reported")
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range testSizes {
		var phase int64
		err := Run(p, func(c *Comm) error {
			atomic.AddInt64(&phase, 1)
			c.Barrier()
			if got := atomic.LoadInt64(&phase); got != int64(p) {
				return fmt.Errorf("rank %d passed barrier with phase=%d, want %d", c.Rank(), got, p)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root += max(1, p/2) {
			err := Run(p, func(c *Comm) error {
				buf := make([]float64, 4)
				if c.Rank() == root {
					buf = []float64{1, 2, 3, 4}
				}
				Bcast(c, root, buf)
				if !reflect.DeepEqual(buf, []float64{1, 2, 3, 4}) {
					return fmt.Errorf("rank %d buf=%v", c.Rank(), buf)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBcastScalar(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		v := -1
		if c.Rank() == 2 {
			v = 42
		}
		if got := BcastScalar(c, 2, v); got != 42 {
			return fmt.Errorf("rank %d got %d", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range testSizes {
		err := Run(p, func(c *Comm) error {
			in := []float64{float64(c.Rank()), 1}
			out := Reduce(c, 0, in, OpSum)
			if c.Rank() == 0 {
				wantSum := float64(p*(p-1)) / 2
				if out[0] != wantSum || out[1] != float64(p) {
					return fmt.Errorf("out=%v", out)
				}
			} else if out != nil {
				return errors.New("non-root got non-nil")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestReduceOps(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		v := int64(c.Rank() + 1) // 1..4
		if got := AllreduceScalar(c, v, OpProd); got != 24 {
			return fmt.Errorf("prod=%d", got)
		}
		if got := AllreduceScalar(c, v, OpMin); got != 1 {
			return fmt.Errorf("min=%d", got)
		}
		if got := AllreduceScalar(c, v, OpMax); got != 4 {
			return fmt.Errorf("max=%d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMatchesSerial(t *testing.T) {
	// Property: distributed Allreduce equals the serial reduction, for random
	// per-rank contributions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const p, n = 5, 16
		data := make([][]float64, p)
		want := make([]float64, n)
		for r := 0; r < p; r++ {
			data[r] = make([]float64, n)
			for i := range data[r] {
				data[r][i] = float64(rng.Intn(1000))
				want[i] += data[r][i]
			}
		}
		ok := true
		err := Run(p, func(c *Comm) error {
			got := Allreduce(c, data[c.Rank()], OpSum)
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("i=%d got %v want %v", i, got[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	for _, p := range testSizes {
		err := Run(p, func(c *Comm) error {
			in := make([]int, c.Rank()+1) // ragged
			for i := range in {
				in[i] = c.Rank()
			}
			out := Gather(c, 0, in)
			if c.Rank() != 0 {
				if out != nil {
					return errors.New("non-root got non-nil")
				}
				return nil
			}
			for r := 0; r < p; r++ {
				if len(out[r]) != r+1 {
					return fmt.Errorf("len(out[%d])=%d", r, len(out[r]))
				}
				for _, v := range out[r] {
					if v != r {
						return fmt.Errorf("out[%d]=%v", r, out[r])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range testSizes {
		err := Run(p, func(c *Comm) error {
			in := []int{c.Rank() * 10, c.Rank()*10 + 1}
			out := Allgather(c, in)
			for r := 0; r < p; r++ {
				want := []int{r * 10, r*10 + 1}
				if !reflect.DeepEqual(out[r], want) {
					return fmt.Errorf("rank %d: out[%d]=%v want %v", c.Rank(), r, out[r], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllgatherFlat(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		in := []int{c.Rank()}
		got := AllgatherFlat(c, in)
		if !reflect.DeepEqual(got, []int{0, 1, 2}) {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	for _, p := range testSizes {
		err := Run(p, func(c *Comm) error {
			var parts [][]float64
			if c.Rank() == 0 {
				parts = make([][]float64, p)
				for r := range parts {
					parts[r] = []float64{float64(r), float64(r * r)}
				}
			}
			got := Scatter(c, 0, parts)
			want := []float64{float64(c.Rank()), float64(c.Rank() * c.Rank())}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("rank %d got %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range testSizes {
		err := Run(p, func(c *Comm) error {
			parts := make([][]int, p)
			for d := range parts {
				parts[d] = []int{c.Rank()*100 + d}
			}
			out := Alltoall(c, parts)
			for s := 0; s < p; s++ {
				want := []int{s*100 + c.Rank()}
				if !reflect.DeepEqual(out[s], want) {
					return fmt.Errorf("rank %d out[%d]=%v want %v", c.Rank(), s, out[s], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestScanInclusive(t *testing.T) {
	for _, p := range testSizes {
		err := Run(p, func(c *Comm) error {
			got := Scan(c, []int{c.Rank() + 1}, OpSum)[0]
			want := (c.Rank() + 1) * (c.Rank() + 2) / 2
			if got != want {
				return fmt.Errorf("rank %d got %d want %d", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestExclusiveScanScalar(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		got := ExclusiveScanScalar(c, c.Rank()+1, OpSum)
		want := c.Rank() * (c.Rank() + 1) / 2
		if got != want {
			return fmt.Errorf("rank %d sum got %d want %d", c.Rank(), got, want)
		}
		gotMax := ExclusiveScanScalar(c, c.Rank()+1, OpMax)
		wantMax := c.Rank() // max of 1..rank; rank 0 gets own value 1
		if c.Rank() == 0 {
			wantMax = 1
		}
		if gotMax != wantMax {
			return fmt.Errorf("rank %d max got %d want %d", c.Rank(), gotMax, wantMax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveScanScalarProd(t *testing.T) {
	// All non-zero: exclusive products are the exact lower-rank chain.
	err := Run(4, func(c *Comm) error {
		vals := []float64{3, 5, 7, 11}
		got := ExclusiveScanScalar(c, vals[c.Rank()], OpProd)
		want := []float64{1, 3, 15, 105}[c.Rank()]
		if got != want {
			return fmt.Errorf("rank %d prod got %g want %g", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveScanScalarProdZero(t *testing.T) {
	// Regression: a zero value used to panic ("with zero value"), and a
	// data-dependent fallback would deadlock on mixed zero/non-zero input.
	// The shifted chain handles zeros anywhere, including rank 0.
	for _, zeroRank := range []int{0, 2} {
		err := Run(4, func(c *Comm) error {
			v := float64(c.Rank() + 2)
			if c.Rank() == zeroRank {
				v = 0
			}
			got := ExclusiveScanScalar(c, v, OpProd)
			want := 1.0
			for r := 0; r < c.Rank(); r++ {
				vr := float64(r + 2)
				if r == zeroRank {
					vr = 0
				}
				want *= vr
			}
			if got != want {
				return fmt.Errorf("rank %d (zero at %d) got %g want %g", c.Rank(), zeroRank, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, tagData, make([]float64, 100)) // 800 bytes
		} else {
			Recv[float64](c, 0, tagData)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.snapshot()
	if got := snap.ByteCount(0, 1); got != 800 {
		t.Fatalf("ByteCount(0,1)=%d want 800", got)
	}
	if got := snap.MsgCount(0, 1); got != 1 {
		t.Fatalf("MsgCount(0,1)=%d want 1", got)
	}
	if snap.TotalBytes() != 800 || snap.TotalMsgs() != 1 {
		t.Fatalf("totals: %d bytes %d msgs", snap.TotalBytes(), snap.TotalMsgs())
	}
	if snap.RankSentBytes(0) != 800 || snap.RankRecvBytes(1) != 800 {
		t.Fatal("per-rank totals wrong")
	}
}

func TestStatsMasterVsWorker(t *testing.T) {
	stats, err := RunStats(3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			Send(c, 1, tagData, make([]byte, 10))
			Recv[byte](c, 2, tagCtl)
		case 1:
			Recv[byte](c, 0, tagData)
			Send(c, 2, tagAux, make([]byte, 1000)) // worker <-> worker
		case 2:
			Recv[byte](c, 1, tagAux)
			Send(c, 0, tagCtl, make([]byte, 20))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.snapshot()
	if got := snap.MasterBytes(); got != 30 {
		t.Fatalf("MasterBytes=%d want 30", got)
	}
	if got := snap.WorkerBytes(); got != 1000 {
		t.Fatalf("WorkerBytes=%d want 1000", got)
	}
}

func TestStatsReset(t *testing.T) {
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, tagData, []byte{1, 2, 3})
		} else {
			Recv[byte](c, 0, tagData)
		}
		c.Barrier()
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the final barrier pair no p2p data messages remain... barrier
	// itself sends messages, so only check the 3-byte payload is gone.
	snap := stats.snapshot()
	if snap.ByteCount(0, 1) >= 3 && snap.MsgCount(0, 1) == 1 {
		t.Fatalf("stats not reset: %v", snap)
	}
}

func TestCostModel(t *testing.T) {
	m := &CostModel{LatencySec: 1e-6, SecondsPerByte: 1e-9}
	if got := m.Time(1000); got < 2e-6*(1-1e-12) || got > 2e-6*(1+1e-12) {
		t.Fatalf("Time(1000)=%g want ~2e-06", got)
	}
}

func TestEthernetLikeModel(t *testing.T) {
	m := EthernetLike()
	if m.Time(0) <= 0 {
		t.Fatal("latency must be positive")
	}
	if m.Time(1<<20) <= m.Time(0) {
		t.Fatal("bandwidth term must grow with size")
	}
}

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		in   any
		want int64
	}{
		{[]float64{1, 2, 3}, 24},
		{[]float32{1, 2}, 8},
		{[]int{1, 2, 3, 4}, 32},
		{[]int64{1}, 8},
		{[]int32{1, 2, 3}, 12},
		{[]byte{1, 2}, 2},
		{[]bool{true}, 1},
		{[]complex128{1i}, 16},
		{[]complex64{1i, 2}, 16},
		{[]string{"ab", "c"}, 3},
		{[]float64(nil), 0},
	}
	for _, tc := range cases {
		if got := payloadOf(tc.in).bytes(); got != tc.want {
			t.Errorf("bytes of %T %v = %d, want %d", tc.in, tc.in, got, tc.want)
		}
	}
}

// TestPayloadBytesPinned pins the accounted size of every codecPayloads
// entry at the values the per-type switch gave, so the Stats and trace byte
// counts (E1's control messages among them) cannot drift with the way
// a payload computes them.
func TestPayloadBytesPinned(t *testing.T) {
	want := []int64{0, 32, 0, 8, 0, 24, 0, 16, 0, 8, 0, 3, 0, 3, 0, 32, 0, 16, 0, 11}
	if len(want) != len(codecPayloads) {
		t.Fatalf("%d pinned sizes for %d codecPayloads entries", len(want), len(codecPayloads))
	}
	for i, in := range codecPayloads {
		if got := payloadOf(in).bytes(); got != want[i] {
			t.Errorf("bytes of %T %v = %d, want %d", in, in, got, want[i])
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpSum: "sum", OpProd: "prod", OpMin: "min", OpMax: "max", Op(9): "Op(9)"} {
		if got := op.String(); got != want {
			t.Errorf("Op.String() = %q want %q", got, want)
		}
	}
}

func TestStatsSnapshotString(t *testing.T) {
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, tagData, []byte{1})
		} else {
			Recv[byte](c, 0, tagData)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := stats.snapshot().String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestSendToSelf(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		Send(c, c.Rank(), tagSelf, []int{c.Rank() * 7})
		got := Recv[int](c, c.Rank(), tagSelf)
		if got[0] != c.Rank()*7 {
			return fmt.Errorf("self-send got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveSequencing runs many collectives back to back to confirm tag
// namespaces never collide between consecutive operations.
func TestCollectiveSequencing(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			v := AllreduceScalar(c, 1, OpSum)
			if v != 4 {
				return fmt.Errorf("iter %d: got %d", i, v)
			}
			buf := []int{0}
			if c.Rank() == i%4 {
				buf[0] = i
			}
			Bcast(c, i%4, buf)
			if buf[0] != i {
				return fmt.Errorf("iter %d: bcast got %d", i, buf[0])
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}
