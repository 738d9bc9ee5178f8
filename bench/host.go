package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This host runs in two speed regimes that alternate every few minutes and
// differ by 20-36% on every workload here, compute-bound and latency-bound
// alike (README.md has the 28-minute record). A raw time therefore says
// which regime a run fell into before it says anything about the program.
// Every round times two reference kernels next to its measurements, and
// reports its times divided by how much slower than the reference host the
// kernels ran. The kernels use the standard library only, so no change to
// the program can move them.
const (
	refCPUMs  = 6.6  // calibCPU on the reference host: this host's median on the day the benchmark was defined
	refSyncMs = 5.44 // calibSync, likewise
)

// calibData is the read-only input of calibCPU: 128 KiB, resident in L2.
var calibData = func() []float64 {
	x := make([]float64, 16384)
	for i := range x {
		x[i] = 0.5 + 0.4*math.Sin(float64(i)*3)
	}
	return x
}()

var calibSink float64 // keeps the compiler from dropping the kernels

// calibCPU times a throughput-bound sweep of sqrt, exp and sin on two
// goroutines at once. Throughput-bound is the point: a dependent chain of
// multiplies (the first calibrator tried) does not slow down in the slow
// regime, and so tracked nothing.
func calibCPU() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	var sums [2]float64
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := 0.0
			for rep := 0; rep < 16; rep++ {
				for _, v := range calibData {
					s += math.Sqrt(v*v+v) + math.Exp(-v)*math.Sin(v)
				}
			}
			sums[g] = s
		}()
	}
	wg.Wait()
	calibSink = sums[0] + sums[1]
	return time.Since(t0).Seconds() * 1e3
}

// calibSync times 10000 round trips between two goroutines over unbuffered
// channels, each carrying a freshly allocated 8-byte message: the cost of
// handing work to another goroutine, which is most of a latency-bound job.
func calibSync() float64 {
	ping, pong := make(chan []float64), make(chan []float64)
	go func() {
		for b := range ping {
			pong <- append([]float64(nil), b...)
		}
	}()
	t0 := time.Now()
	b := []float64{1}
	for i := 0; i < 10000; i++ {
		ping <- append([]float64(nil), b...)
		b = <-pong
	}
	ms := time.Since(t0).Seconds() * 1e3
	close(ping)
	calibSink = b[0]
	return ms
}

// slowdown is how much slower than the reference host the two kernels run
// right now, averaged: 1 on the reference host, which is this host in the
// slower regime it spends most of its time in; about 0.8 in the faster one.
func slowdown() float64 { return (calibCPU()/refCPUMs + calibSync()/refSyncMs) / 2 }

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal float64 }

// readCPUStat reads the host-wide CPU counters; zero where there is no
// /proc/stat, which reports a steal share of 0.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var s cpuStat
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64) // a malformed field counts as 0 ticks
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// hostMetrics adds the diagnostics that explain a disturbed run.
func hostMetrics(r *result, cpu0 cpuStat) {
	r.layers.set("host.calib_cpu_ms", calibCPU())
	r.layers.set("host.calib_sync_ms", calibSync())
	r.layers.set("host.slowdown", midmean(column(r.rounds, func(x round) float64 { return x.slow })))
	cpu1 := readCPUStat()
	steal := 0.0
	if d := cpu1.total - cpu0.total; d > 0 {
		steal = (cpu1.steal - cpu0.steal) / d
	}
	r.layers.set("host.steal_share", steal)
	r.layers.set("host.stall_share", median(column(r.rounds, func(x round) float64 { return x.stall })))
	r.layers.set("host.round_spread", iqrShare(rawP50(r.rounds)))
}
