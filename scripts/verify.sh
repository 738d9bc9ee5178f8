#!/bin/sh
# Repo verification: tier-1 build+test plus static analysis and the race
# detector over the concurrency-bearing packages (the simulated-MPI layer
# and the intra-rank exec engine, whose equivalence tests drive goroutine
# pools through dense/fusion/sparse kernels).
#
# Usage: ./scripts/verify.sh
set -eux

cd "$(dirname "$0")/.."

# Every stage is timed. `stage NAME` closes the stage that was running and
# opens the next; the table prints when the script exits, pass or fail, so a
# stage that got slower (or the one that failed) is named in the log.
stages=""
stage_name=""
stage() {
  now=$(date +%s)
  if [ -n "$stage_name" ]; then
    stages="$stages$(printf '  %-10s %5ss' "$stage_name" $((now - stage_start)))
"
  fi
  stage_name="${1:-}"
  stage_start=$now
}
trap 'set +x; stage; printf "verify: stage times\n%s" "$stages"' EXIT

stage build
go build ./...

# gofmt gate: any file gofmt would rewrite fails the run, named in the log.
stage gofmt
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "verify: gofmt would rewrite: $unformatted" >&2
  exit 1
fi

stage vet
go vet ./...
# The portable build: off amd64 the SELL slice kernel, the level-1 kernels
# and the four-lane transcendentals are the Go loops alone
# (internal/sparse/sell_other.go, internal/dense/level1_other.go,
# internal/dense/vecmath_other.go, internal/cpuid/cpuid_other.go), so vet
# them for arm64 as well — a build that nothing here runs must not break
# unnoticed.
GOARCH=arm64 go vet ./internal/cpuid ./internal/dense ./internal/sparse ./internal/tpetra ./internal/solvers

# Domain invariants: the odinvet multichecker (internal/analysis) enforces
# tag hygiene, hot-kernel allocation bans, span closure, and plan
# single-threadedness, and reports stale //lint:allow directives. Run from
# source — no install step — and fail hard on any finding (see DESIGN.md
# "Static analysis"). Deadlocks and divergent collectives are caught at run
# time instead, by comm's deadlock detector and unread-message check
# (DESIGN.md "Deadlock detection"; the timing stage below, TestDeadlockCorpus
# and TestDivergenceCorpus).
stage odinvet
go run ./cmd/odinvet ./...
# The standing exceptions per analyzer (ROADMAP item 13 tracks the count);
# printed for the log, not a gate.
echo "verify: standing //lint:allow directives per analyzer:"
go run ./cmd/odinvet -allows ./... | awk -F': ' '{print $2}' | sort | uniq -c

# A failing rank aborts its peers on every session and a deadlocked inproc
# session fails at once, so no test strands a
# session; a 3-minute cap per test binary (the slowest takes ~15 s) keeps a
# regression from stalling this stage for Go's default 10 minutes.
stage test
go test -timeout 3m ./...

# Timing: the real-clock bounds of the receive spin gate, of a session abort,
# of a receive deadline under jitter and of the deadlock detector. A ping-pong
# that answers at once must park (at most 12 spin hits in 250 round trips); a
# rank that computed before an allreduce must spin (nine waits in ten in the
# best window); a session whose rank fails must resolve within 100 ms; a
# jittered session blocked on a message nobody sends must time out within
# 10 s; a recv-before-send ring with no receive deadline must fail with
# FaultDeadlock within 100 ms. Wall-clock bounds need the host to themselves,
# so they build only with the timing tag and run here with the comm package
# alone; tier-1 holds the gate's decisions exactly through
# TestSpinDecisionScripted, the abort's typed error through
# TestRankFailureAbortsSession, the deadline's through
# TestSchedJitterRecvTimeout and the deadlock's through TestDeadlockCorpus.
stage timing
go test -tags timing -count=1 -run 'TestPingPongDoesNotSpin|TestSyncAfterComputeDoesNotPark|TestRankFailureAbortsPromptly|TestSchedJitterRecvTimeoutPromptly|TestDeadlockDetectedPromptly' ./internal/comm

# Fuzz the tcp wire codec for ten seconds: its decode half takes frame bodies
# straight from the socket, so arbitrary bytes must decode to a frame or an
# error — never a panic — and every encoded payload must round-trip. Then
# fuzz SELL-C-sigma for ten seconds: both slice kernels must match CSR bit
# for bit, and ToCSR must give back the CSR it was built from, since a
# SELL-selected matrix keeps the SELL as its only local copy. Then fuzz the
# four-lane sin, cos, exp and sqrt for ten seconds: every element must be
# math's, bit for bit, wherever the input puts NaNs, infinities, subnormals
# or out-of-domain magnitudes among the lanes. Then fuzz the level-1 lane
# kernels for ten seconds: sum, dot, waxpyDot, axpby and cgStep, AVX2 and Go
# bodies alike, must match the lane order restated in the test at every
# length and alignment the input picks — every sum and dot in the tree
# (tpetra, ufunc, the fusion VM's Plan.Sum) runs one of them.
stage fuzz
go test -run '^$' -fuzz '^FuzzFrameCodec$' -fuzztime 10s ./internal/comm
go test -run '^$' -fuzz '^FuzzSELLMatchesCSR$' -fuzztime 10s ./internal/sparse
go test -run '^$' -fuzz '^FuzzVecTranscendentals$' -fuzztime 10s ./internal/dense
go test -run '^$' -fuzz '^FuzzLevel1Lanes$' -fuzztime 10s ./internal/dense

# Stage "allocs": the allocation pins of the solver hot loop and of the warm
# expression path, on their own — a scalar AllreduceInto at P=2/4/8,
# Vector.Dot, Gather and CrsMatrix.Apply on the laplace1d/3d stencils, the
# CG and BiCGSTAB per-iteration slopes, a kept fusion Plan's Sum at
# P=1/2/4, and DotSlices, CGStep and WaxpyDot over four chunks on a
# one-worker engine must all allocate exactly nothing at steady state, a warm
# solve job through the scheduler nothing per CG iteration and nothing in
# proportion to n (the same objects, and bytes within 1 KiB, at n = 512 and
# 16 384: x and the work vectors live in the warm entry), one warm expr
# job exactly its four objects, a warm request through the HTTP handler at
# most 25 or 26 objects on each bench workload's body, and a warm call of a
# compiled seamless array kernel the same objects at chain depth 1, 4 and 16
# with no plan-cache lookup (it runs the plan its kernel was compiled
# with). The cold path has bounds, not zeros: a 32^3 Laplacian assembly at
# P=2 at most 0.01 objects per owned row and 40 bytes per stored nonzero, a
# serial 32^3 build at most 16 objects, a COO at most twice its final arrays'
# bytes, a LocalRows walk a fixed few objects and a TransposeDist at most
# 0.05 objects per row.
# They count process-wide mallocs, so they run uncached and not under -race
# (where they skip).
stage allocs
go test -count=1 -run 'TestAllreduceAllocs|TestGatherSteadyStateAllocs|TestCGAllocsPerIteration|TestBiCGSTABAllocsPerIteration|TestPlanSumAllocs|TestWarmExprJobAllocs|TestWarmHTTPRequestAllocs|TestWarmSolveJobAllocsPerIteration|TestWarmSolveJobBytesFlat|TestLevel1Allocs|TestAssemblyAllocs|TestSerialAssemblyAllocs|TestCOOGrowthBytes|TestLocalRowsAllocs|TestCompiledKernelWarmCallAllocs' \
  ./internal/comm ./internal/tpetra ./internal/solvers ./internal/fusion ./internal/serve ./internal/dense ./internal/galeri ./internal/sparse ./internal/seamless/compile

# Race pass over every concurrency-bearing package: the comm fabric, the
# rank/context layer, the exec pool, the fusion VM (whose block sweep shares
# compiled programs across pool workers and must stay bitwise identical to
# the reference evaluators), the tpetra distributed kernels, the trace
# ring (all ranks emit into a shared session), the serve scheduler
# (concurrent jobs on warm rank groups sharing plans and the fusion cache),
# and the experiment registry (cases that run SPMD kernels on every rank and
# read their results after the session).
stage race
go test -race ./internal/comm ./internal/core ./internal/exec ./internal/fusion ./internal/tpetra ./internal/trace ./internal/serve ./internal/experiments

# Chaos conformance: replay collectives and distributed kernels under seeded
# fault plans, twice, under the race detector — results must be bitwise
# identical to fault-free runs or fail with a typed comm.FaultError.
stage chaos
go test -race -count=2 -run Chaos ./internal/comm/... ./internal/fusion ./internal/tpetra ./internal/distmap ./internal/slicing ./internal/solvers

# Trace-enabled pass: ODINHPC_TRACE auto-starts a session at init, so the
# comm and tpetra suites run with every instrumentation site live, under the
# race detector (all ranks emit into the shared session concurrently).
stage trace
ODINHPC_TRACE=65536 go test -race ./internal/trace ./internal/comm ./internal/tpetra

# Transport conformance: the whole comm suite — goldens, chaos, splits,
# trace reconciliation — replayed with every message on real loopback
# sockets (ODINHPC_TRANSPORT=tcp; the divergence matrix's tcp leg,
# TestDivergentCollectivesTimeOutOnTCP, pins tcp itself and runs in tier-1
# too), then a race pass over the transport code
# (the tcp endpoint runs reader/writer goroutines per connection and the
# launch rendezvous serves workers concurrently).
stage tcp
ODINHPC_TRANSPORT=tcp go test ./internal/comm/...
ODINHPC_TRANSPORT=tcp go test -race ./internal/comm ./internal/comm/launch

# Multi-process end to end: a distributed CG solve with one OS process per
# rank, wired by the comm/launch rendezvous over tcp.
stage odinrun
go build -o /tmp/odinhpc-odinrun ./cmd/odinrun
/tmp/odinhpc-odinrun -transport=tcp -np=4 -n 512 cg

# Serve smoke: start odinserve on a free port, fire 64 mixed solve/expr
# jobs from 16 concurrent clients through the loadgen, and require zero
# failed jobs, p99 under 2s, and warm expression plans (/v1/stats: more expr
# jobs found their group's bound plan than had to prepare it) — the
# service's acceptance gate, end to end over real HTTP.
stage serve
go build -o /tmp/odinhpc-odinserve ./cmd/odinserve
rm -f /tmp/odinhpc-odinserve.addr
/tmp/odinhpc-odinserve -addr 127.0.0.1:0 -addr-file /tmp/odinhpc-odinserve.addr -groups 4 -ranks 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s /tmp/odinhpc-odinserve.addr ] && break
  sleep 0.1
done
SERVE_OK=0
/tmp/odinhpc-odinserve -loadgen -url "http://$(cat /tmp/odinhpc-odinserve.addr)" \
  -jobs 64 -conc 16 -mix mixed -max-p99 2s -require-warm-cache || SERVE_OK=1
kill "$SERVE_PID"
wait "$SERVE_PID" || true
[ "$SERVE_OK" = "0" ]

# Opt-in stress tier (ODINHPC_STRESS=1): the odinstress smoke grid — the
# conformance corpus across GOMAXPROCS × pool × ranks × transport × fault
# plan with seeded scheduling jitter — run twice with the same seed; the
# deterministic stdout reports (per-point PASS lines plus checksum) must be
# identical. The full grid (-grid=full -heavy) is the nightly tier, too slow
# for every verify run; see DESIGN.md "Conformance harness".
stage stress
if [ "${ODINHPC_STRESS:-}" = "1" ]; then
  go build -o /tmp/odinhpc-odinstress ./cmd/odinstress
  /tmp/odinhpc-odinstress -seed=1 > /tmp/odinhpc-stress-1.out
  /tmp/odinhpc-odinstress -seed=1 > /tmp/odinhpc-stress-2.out
  diff /tmp/odinhpc-stress-1.out /tmp/odinhpc-stress-2.out
fi

# Bench smoke: two seconds of each solver workload of the end-to-end
# benchmark. The driver checks every job's bytes against the reference
# solve, iteration count included (256 and 79), so a fused sweep that slips a
# bit — the histories shift, the count moves — fails here, before the A/B
# pipeline: the run must exit 0 and its result line must say "correct":true.
stage bench-smoke
for w in solve_small solve_large; do
  go run ./bench --workload "$w" --seed 2 --seconds 2 --trace 0 > /tmp/odinhpc-bench-smoke.out
  tail -n 1 /tmp/odinhpc-bench-smoke.out | grep -q '"correct":true'
done

# Disabled-path guard: replay the hot-loop benchmarks against the recorded
# BENCH_*.json rows. Only what repeats exactly is gated — allocs/op where a
# row carries it (hence -benchmem), and that every recorded row still
# resolves to a benchmark. ns/op is printed beside the recorded figure and
# never fails the run: a wall-clock regression is judged by an interleaved
# A/B of `go run ./bench` against the parent commit (bench/README.md).
stage bench
go build -o /tmp/odinhpc-benchguard ./cmd/benchguard
bench_gate() {
  pkg="$1"; pattern="$2"; benchtime="$3"; baseline="$4"
  go test -run XXX -bench "$pattern" -benchtime="$benchtime" -benchmem "$pkg" \
    | /tmp/odinhpc-benchguard -baseline "$baseline"
}
bench_gate . Experiment/E5b 0.3s BENCH_exec.json
bench_gate . Experiment/E12/depth 0.3s BENCH_fusion.json
bench_gate . Experiment/E14 0.3s BENCH_spmv.json
bench_gate ./internal/comm 'CommTransport|AllreduceScalar|SyncAfterCompute' 0.2s BENCH_comm.json
bench_gate ./internal/serve Serve 0.3s BENCH_serve.json
