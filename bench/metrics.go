package main

import "fmt"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric under the unit declared for its name.
func (m metrics) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit, ok = layerUnits[name]
	}
	if !ok {
		panic(fmt.Sprintf("bench: metric %q has no declared unit", name))
	}
	m[name] = metric{v, unit}
}

// fillAbsent reports 0 for every per-layer metric the workload has no layer
// for (no solver in an expression job, no fusion sweep in a solve): the
// driver wants the same names from every workload.
func (m metrics) fillAbsent() {
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			m.set(name, 0)
		}
	}
}

// endToEndUnits and layerUnits declare every metric this program reports;
// BENCHMARK.json lists the same names and a test holds the two together.
// README.md defines each one.
var endToEndUnits = map[string]string{
	"latency_p50_ms": "ms", "latency_p90_ms": "ms", "jobs_per_s": "1/s", "allocs_per_job": "count",
	"alloc_kb_per_job": "KiB", "heap_live_mb": "MiB", "setup_s": "s",
}

var layerUnits = map[string]string{
	"serve.http_us": "us", "serve.codec_us": "us", "serve.expr_parse_us": "us", "serve.dispatch_us": "us",
	"serve.job_body_us": "us", "serve.rank_skew_us": "us", "serve.cold_job_ms": "ms", "serve.cache_kb_per_entry": "KiB",
	"comm.msgs_per_job": "count", "comm.kb_per_job": "KiB", "comm.allreduce_scalar_us": "us",
	"comm.allreduce_scalar_allocs": "count", "comm.sendrecv_8b_us": "us", "comm.sendrecv_8k_us": "us",
	"tpetra.apply_us": "us", "tpetra.apply_calls": "count", "tpetra.apply_allocs": "count", "tpetra.halo_us": "us",
	"tpetra.dot_us": "us", "tpetra.dot_allocs": "count", "tpetra.axpy_us": "us",
	"tpetra.assemble_ms": "ms", "tpetra.fillcomplete_ms": "ms",
	"sparse.spmv_us": "us", "sparse.format": "enum", "sparse.spmv_gflops": "GF/s", "sparse.bytes_per_flop_computed": "B/flop",
	"solvers.cg_us": "us", "solvers.iterations": "count", "solvers.self_us_per_iter": "us",
	"solvers.allocs_per_iter": "count", "solvers.unattributed_share": "ratio",
	"fusion.sumeval_us": "us", "fusion.sumeval_share": "ratio", "fusion.vm_mb_per_s": "MB/s", "fusion.plan_lookup_us": "us",
	"fusion.plan_hits_per_job": "count", "fusion.plan_misses_per_job": "count", "fusion.instrs": "count", "fusion.regs": "count",
	"exec.calls_per_job": "count", "exec.busy_us_per_job": "us",
	"runtime.gc_cycles_per_kjob": "count", "runtime.gc_pause_us_per_job": "us",
	"trace.overhead_share": "ratio", "trace.unattributed_share": "ratio", "harness.client_us": "us",
	"host.calib_cpu_ms": "ms", "host.calib_sync_ms": "ms", "host.slowdown": "ratio", "host.steal_share": "ratio", "host.stall_share": "ratio", "host.round_spread": "ratio",
}
