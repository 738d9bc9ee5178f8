package comm

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
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

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, tagPing, []float64{1, 2, 3})
			return nil
		}
		got := c.Recv(0, tagPing).([]float64)
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
			c.Send(1, tagData, buf)
			buf[0] = 99 // must not be visible at receiver
			c.Send(1, tagCtl, []byte{1})
			return nil
		}
		got := c.Recv(0, tagData).([]float64)
		c.Recv(0, tagCtl)
		if got[0] != 1 {
			return fmt.Errorf("receiver saw sender mutation: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sendF is a named element type: a []sendF is outside the codec's slice
// set, so it is copied by reflection inproc and rides gob over tcp.
type sendF float64

// TestSendCopiesEverySliceType is the regression test for payloads Send used
// to hand over uncopied: a []complex64 (a dense.Elem, so every
// DistArray[complex64] collective) and any named-element slice. Rank 0
// overwrites both after Send returns and only then meets rank 1 at a
// barrier; rank 1 must still see the values that were sent. A nil slice of
// the wire payload set arrives as an empty, non-nil slice, whether it is
// copied by an explicit arm ([]float64) or by reflection ([]int32). Both
// transports.
func TestSendCopiesEverySliceType(t *testing.T) {
	gob.Register([]sendF(nil))
	for _, tr := range []string{"inproc", "tcp"} {
		_, err := RunConfig(2, Config{Transport: tr}, func(c *Comm) error {
			if c.Rank() == 0 {
				cs, fs := []complex64{1 + 2i, -3i}, []sendF{1.5, -2}
				c.Send(1, tagData, cs)
				c.Send(1, tagCtl, fs)
				c.Send(1, tagAux, []float64(nil))
				c.Send(1, tagPing, []int32(nil))
				cs[0], fs[0] = 99, 99
			}
			c.Barrier()
			if c.Rank() == 0 {
				return nil
			}
			if got := c.Recv(0, tagData).([]complex64); !reflect.DeepEqual(got, []complex64{1 + 2i, -3i}) {
				return fmt.Errorf("[]complex64: receiver saw the sender's overwrite: %v", got)
			}
			if got := c.Recv(0, tagCtl).([]sendF); !reflect.DeepEqual(got, []sendF{1.5, -2}) {
				return fmt.Errorf("[]sendF: receiver saw the sender's overwrite: %v", got)
			}
			if got := c.Recv(0, tagAux); !reflect.DeepEqual(got, []float64{}) {
				return fmt.Errorf("nil []float64 arrived as %#v, want an empty non-nil slice", got)
			}
			if got := c.Recv(0, tagPing); !reflect.DeepEqual(got, []int32{}) {
				return fmt.Errorf("nil []int32 arrived as %#v, want an empty non-nil slice", got)
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
			c.Send(1, tagSelHi, []int{tagSelHi})
			c.Send(1, tagSelMid, []int{tagSelMid})
			c.Send(1, tagSelLo, []int{tagSelLo})
			return nil
		}
		//lint:allow p2pmatch Tag-selective drain over a fixed three-tag list; rank 0 sends each tag exactly once above
		for _, tag := range []int{tagSelLo, tagSelMid, tagSelHi} {
			got := c.Recv(0, tag).([]int)
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
			c.Send(0, 100+c.Rank(), []int{c.Rank()})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			m := c.RecvMsg(AnySource, AnyTag)
			v := m.Payload.([]int)[0]
			if v != m.Src || m.Tag != 100+m.Src {
				return fmt.Errorf("envelope mismatch: %+v", m)
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
			c.Send(1, tagProbe, []int{1})
			return nil
		}
		// Wait for the message to arrive, then probe.
		got := c.RecvMsg(0, tagProbe)
		//lint:allow p2pmatch Deliberate: Probe emptiness after the drain is the assertion; the preceding RecvMsg completed the match
		if c.Probe(0, tagProbe) {
			return errors.New("Probe true after queue drained")
		}
		_ = got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		other := 1 - c.Rank()
		got := c.SendRecv(other, []int{c.Rank()}, other, tagXchg).([]int)
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
		//lint:allow p2pmatch Deliberate: the out-of-range Send panic is the behavior under test
		c.Send(5, tagData, []int{1})
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
			c.Send(1, tagData, make([]float64, 100)) // 800 bytes
		} else {
			c.Recv(0, tagData)
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
			c.Send(1, tagData, make([]byte, 10))
			c.Recv(2, tagCtl)
		case 1:
			c.Recv(0, tagData)
			c.Send(2, tagAux, make([]byte, 1000)) // worker <-> worker
		case 2:
			c.Recv(1, tagAux)
			c.Send(0, tagCtl, make([]byte, 20))
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
			c.Send(1, tagData, []byte{1, 2, 3})
		} else {
			c.Recv(0, tagData)
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
		{[]string{"ab", "c"}, 3},
		{3.14, 8},
		{int(7), 8},
		{"hello", 5},
		{true, 1},
		{nil, 0},
	}
	for _, tc := range cases {
		if got := payloadBytes(tc.in); got != tc.want {
			t.Errorf("payloadBytes(%T %v) = %d, want %d", tc.in, tc.in, got, tc.want)
		}
	}
}

// TestPayloadBytesPinned pins the accounted size of every codecPayloads
// entry, a struct and a pointer at the values the per-type switch gave, so
// the Stats and trace byte counts (E1's control messages among them) cannot
// drift with the way payloadBytes computes them.
func TestPayloadBytesPinned(t *testing.T) {
	type ctl struct {
		A, B int
		C    float32
	}
	want := []int64{0, 0, 32, 8, 24, 16, 8, 3, 3, 32, 11, 8, 4, 8, 8, 4, 8, 4, 1, 1, 13, 16}
	if len(want) != len(codecPayloads) {
		t.Fatalf("%d pinned sizes for %d codecPayloads entries", len(want), len(codecPayloads))
	}
	cases := append(codecPayloads[:len(codecPayloads):len(codecPayloads)], ctl{}, &ctl{}, (*ctl)(nil))
	want = append(want, 24, 24, 8)
	for i, in := range cases {
		if got := payloadBytes(in); got != want[i] {
			t.Errorf("payloadBytes(%T %v) = %d, want %d", in, in, got, want[i])
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
			c.Send(1, tagData, []byte{1})
		} else {
			c.Recv(0, tagData)
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
		c.Send(c.Rank(), tagSelf, []int{c.Rank() * 7})
		got := c.Recv(c.Rank(), tagSelf).([]int)
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
