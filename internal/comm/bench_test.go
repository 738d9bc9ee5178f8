package comm

import (
	"fmt"
	"testing"
	"time"
)

// benchTagP2P tags the messages of BenchmarkP2P.
const benchTagP2P = 901

// BenchmarkP2P prices one message between two ranks, two ways. pingpong is
// the latency of a message: rank 0 sends, rank 1 receives and answers, so
// at most one message is ever queued and ns/op is two one-way trips. backlog
// is the one-way stream this benchmark used to be — rank 0 sends b.N eager
// messages without waiting, rank 1 drains them — kept because it prices the
// mailbox itself: with every message queued ahead of the receiver, matching
// the head must not cost a pass over the backlog (it once did: 77 us for 8
// bytes against 5 us for 8 KiB was that quadratic memmove, not the wire).
func BenchmarkP2P(b *testing.B) {
	modes := []struct {
		name string
		body func(c *Comm, n int, payload []byte)
	}{
		{"pingpong", func(c *Comm, n int, payload []byte) {
			peer := 1 - c.Rank()
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					Send(c, peer, benchTagP2P, payload)
					Recv[byte](c, peer, benchTagP2P)
				} else {
					Recv[byte](c, peer, benchTagP2P)
					Send(c, peer, benchTagP2P, payload)
				}
			}
		}},
		{"backlog", func(c *Comm, n int, payload []byte) {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					Send(c, 1, benchTagP2P, payload)
				} else {
					Recv[byte](c, 0, benchTagP2P)
				}
			}
		}},
	}
	for _, mode := range modes {
		for _, size := range []int{8, 8192} {
			b.Run(fmt.Sprintf("%s/bytes=%d", mode.name, size), func(b *testing.B) {
				payload := make([]byte, size)
				b.ReportAllocs()
				if err := Run(2, func(c *Comm) error {
					mode.body(c, b.N, payload)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// benchCollective runs body b.N times on every rank of a P-rank session,
// once per P, then any report functions (custom metrics).
func benchCollective(b *testing.B, ps []int, body func(c *Comm), report ...func(b *testing.B)) {
	for _, p := range ps {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			err := Run(p, func(c *Comm) error {
				for i := 0; i < b.N; i++ {
					body(c)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range report {
				r(b)
			}
		})
	}
}

// BenchmarkAllreduce measures the recursive-doubling allreduce of a short
// vector, through the allocating Allreduce.
func BenchmarkAllreduce(b *testing.B) {
	in := []float64{1, 2, 3, 4}
	benchCollective(b, []int{2, 4, 8, 16}, func(c *Comm) { _ = Allreduce(c, in, OpSum) })
}

// BenchmarkAllreduceScalar measures the reduction under every Dot and
// Norm2: 8 bytes per rank in pooled buffers, no allocation (allocs/op is
// gated at 0 in BENCH_comm.json).
func BenchmarkAllreduceScalar(b *testing.B) {
	benchCollective(b, []int{2, 4, 8, 16}, func(c *Comm) { AllreduceScalar(c, 1.0, OpSum) })
}

// benchWork is a fixed-count arithmetic loop of roughly 100 us on this host:
// the compute phase of BenchmarkSyncAfterCompute.
func benchWork(x float64) float64 {
	for i := 0; i < 50000; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

var benchSink float64

// BenchmarkSyncAfterCompute is a Krylov iteration reduced to its
// synchronisation: every rank runs the same ~100 us of arithmetic, then all
// meet in a scalar allreduce. ns/op is the whole step; sync-ns/op is what the
// meeting costs on top of the arithmetic (the same loop timed alone first).
// A receive that parks the moment its peer is a little late pays a thread
// wake-up here every step — as long again as the arithmetic, for 8 bytes —
// which is the cost waitMsg's spin removes. BENCH_comm.json records ns/op. At
// P=4 the two cores hold four ranks, so half of ns/op is the other ranks'
// arithmetic, not waiting.
func BenchmarkSyncAfterCompute(b *testing.B) {
	const calls = 100
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		benchSink = benchWork(benchSink)
	}
	work := float64(time.Since(t0).Nanoseconds()) / calls
	benchCollective(b, []int{2, 4}, func(c *Comm) {
		AllreduceScalar(c, benchWork(float64(c.Rank())), OpMax)
	}, func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)-work, "sync-ns/op")
	})
}

// BenchmarkBarrier measures the dissemination barrier.
func BenchmarkBarrier(b *testing.B) {
	benchCollective(b, []int{2, 8}, func(c *Comm) { c.Barrier() })
}

// BenchmarkAlltoall measures the dense exchange used by redistribution,
// gather-plan construction, and the table shuffle.
func BenchmarkAlltoall(b *testing.B) {
	const per = 256
	benchCollective(b, []int{4, 8}, func(c *Comm) {
		parts := make([][]float64, c.Size())
		for d := range parts {
			parts[d] = make([]float64, per)
		}
		_ = Alltoall(c, parts)
	})
}

// benchTagHalo tags the neighbor exchange of the transport benchmark.
const benchTagHalo = 900

// BenchmarkCommTransport measures the same three communication patterns —
// broadcast, allreduce, and a nearest-neighbor halo exchange — over the
// in-process fabric and over real loopback sockets, so the cost of the wire
// (codec + syscalls + scheduler handoff) is visible as the inproc/tcp ratio
// per row. Payloads are 8 KiB of float64, the halo 1 KiB per side.
// Baselines are recorded in BENCH_comm.json; benchguard gates their allocs/op.
func BenchmarkCommTransport(b *testing.B) {
	ops := []struct {
		name string
		body func(c *Comm, buf, halo []float64)
	}{
		{"bcast", func(c *Comm, buf, _ []float64) { Bcast(c, 0, buf) }},
		{"allreduce", func(c *Comm, buf, _ []float64) { Allreduce(c, buf, OpSum) }},
		{"halo", func(c *Comm, _, halo []float64) {
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			c.SendRecv(right, halo, left, benchTagHalo)
		}},
	}
	for _, transport := range []string{"inproc", "tcp"} {
		for _, op := range ops {
			for _, p := range []int{2, 4} {
				b.Run(fmt.Sprintf("op=%s/transport=%s/P=%d", op.name, transport, p), func(b *testing.B) {
					_, err := RunConfig(p, Config{Transport: transport}, func(c *Comm) error {
						buf := make([]float64, 1024)
						halo := make([]float64, 128)
						for i := range buf {
							buf[i] = float64(c.Rank() + i)
						}
						c.Barrier()
						if c.Rank() == 0 {
							b.ResetTimer()
						}
						for i := 0; i < b.N; i++ {
							op.body(c, buf, halo)
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}
