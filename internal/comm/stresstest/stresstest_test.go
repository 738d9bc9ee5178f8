package stresstest

import (
	"errors"
	"strings"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
)

func TestFingerprintRoundTrip(t *testing.T) {
	p := chaostest.Point{Kernel: "collectives-all", Ranks: 4, Procs: 2, Pool: 3, Transport: "tcp", Plan: "storm", Seed: 98765}
	fp := p.Fingerprint()
	if fp != "v1/collectives-all/P4/G2/W3/tcp/storm/s98765" {
		t.Fatalf("fingerprint = %q", fp)
	}
	got, err := chaostest.ParseFingerprint(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
	for _, bad := range []string{
		"", "v1", "v0/k/P1/G1/W1/inproc/none/s1", "v1/k/X1/G1/W1/inproc/none/s1",
		"v1/k/P1/G1/W1/inproc/none/1", "v1/k/P1/G1/W1/inproc/none/sx",
	} {
		if _, err := chaostest.ParseFingerprint(bad); err == nil {
			t.Fatalf("ParseFingerprint(%q) accepted a malformed fingerprint", bad)
		}
	}
}

// TestSmokeGridShape pins the acceptance floor: the smoke grid holds at
// least 24 points per kernel and covers both transports.
func TestSmokeGridShape(t *testing.T) {
	g := chaostest.SmokeGrid(1)
	k, ok := Find("collectives-all")
	if !ok {
		t.Fatal("collectives-all missing from corpus")
	}
	pts := g.Points(k)
	if len(pts) < 24 {
		t.Fatalf("smoke grid has %d points per kernel, want >= 24", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Transport] = true
		if p.Seed == 0 {
			t.Fatalf("point %s has zero seed", p.Fingerprint())
		}
	}
	if !seen["inproc"] || !seen["tcp"] {
		t.Fatalf("smoke grid transports = %v, want both inproc and tcp", seen)
	}
}

// TestSweepDeterministic replays a small inproc grid twice and demands the
// same checksum, point count, and zero failures — the property verify.sh's
// stress tier checks at smoke scale.
func TestSweepDeterministic(t *testing.T) {
	g := chaostest.Grid{
		Seed:        4321,
		Ranks:       []int{2},
		Procs:       []int{1, 2},
		Pools:       []int{1},
		Transports:  []string{"inproc"},
		Plans:       []string{chaostest.PlanNone, "delay"},
		Jitter:      true,
		RecvTimeout: 10 * time.Second,
	}
	kernels := []chaostest.Kernel{mustFind(t, "collectives-all"), mustFind(t, "split-evenodd")}
	first := chaostest.Sweep(g, kernels, t.Logf)
	second := chaostest.Sweep(g, kernels, nil)
	if len(first.Failures) != 0 {
		t.Fatalf("sweep failed: %v (first failure: %v)", fingerprints(first), first.Failures[0].Err)
	}
	if first.Points != 8 || second.Points != first.Points {
		t.Fatalf("point counts = %d, %d; want 8, 8", first.Points, second.Points)
	}
	if first.Checksum != second.Checksum {
		t.Fatalf("sweep not deterministic: checksums %x != %x", first.Checksum, second.Checksum)
	}
}

// TestRunPointTCP pins one grid point over real sockets.
func TestRunPointTCP(t *testing.T) {
	g := chaostest.SmokeGrid(7)
	p := chaostest.Point{Kernel: "split-evenodd", Ranks: 2, Procs: 2, Pool: 1, Transport: "tcp", Plan: "storm", Seed: 7}
	out := chaostest.RunPoint(g, p, mustFind(t, "split-evenodd"))
	if out.Err != nil {
		t.Fatalf("%s: %v", p.Fingerprint(), out.Err)
	}
}

// TestBuggyKernelCaughtAndMinimized is the harness's reason to exist: the
// permuted-collectives kernel deadlocks at P>=2, comm's deadlock detector
// fails the session with a typed FaultDeadlock the moment the last rank parks
// (the armed RecvTimeout is never reached on inproc), its message names the
// Bcast and the Gather the ranks wait in, and Minimize shrinks the failing
// point to the smallest reproducing configuration (P=2, one worker, one
// processor, no fault plan) with a replayable fingerprint.
func TestBuggyKernelCaughtAndMinimized(t *testing.T) {
	k := mustFind(t, "permuted-collectives")
	if !k.Buggy {
		t.Fatal("permuted-collectives must be marked Buggy")
	}
	for _, healthy := range SweepKernels(true) {
		if healthy.Name == k.Name {
			t.Fatal("buggy kernel leaked into the default sweep set")
		}
	}
	g := chaostest.Grid{Jitter: true, RecvTimeout: 500 * time.Millisecond}
	p := chaostest.Point{Kernel: k.Name, Ranks: 4, Procs: 2, Pool: 2, Transport: "inproc", Plan: chaostest.PlanNone, Seed: 11}
	out := chaostest.RunPoint(g, p, k)
	if out.Err == nil {
		t.Fatalf("%s: buggy kernel passed", p.Fingerprint())
	}
	wantDeadlock(t, p.Fingerprint(), out.Err)
	min := chaostest.Minimize(g, p, k, t.Logf)
	if min.Ranks != 2 || min.Pool != 1 || min.Procs != 1 || min.Plan != chaostest.PlanNone {
		t.Fatalf("minimized to %s, want P=2 W=1 G=1 plan=none", min.Fingerprint())
	}
	// The minimized fingerprint replays: parse it back and re-fail the point.
	rp, err := chaostest.ParseFingerprint(min.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	out = chaostest.RunPoint(g, rp, k)
	if out.Err == nil {
		t.Fatalf("replayed %s did not reproduce", min.Fingerprint())
	}
	wantDeadlock(t, min.Fingerprint(), out.Err)
}

// wantDeadlock fails unless err carries a *comm.FaultError of kind
// FaultDeadlock whose message names a Bcast and a Gather tag.
func wantDeadlock(t *testing.T, point string, err error) {
	t.Helper()
	var fe *comm.FaultError
	if !errors.As(err, &fe) || fe.Kind != comm.FaultDeadlock {
		t.Fatalf("%s: err = %v, want a FaultDeadlock", point, err)
	}
	for _, want := range []string{"(tag bcast root 0 seq ", "(tag gather root 0 seq "} {
		if !strings.Contains(fe.Error(), want) {
			t.Fatalf("%s: %q does not name %q", point, fe.Error(), want)
		}
	}
}

// TestUnknownPlanRejected pins the error path for a fingerprint naming a
// plan outside the chaostest matrix.
func TestUnknownPlanRejected(t *testing.T) {
	g := chaostest.Grid{RecvTimeout: time.Second}
	p := chaostest.Point{Kernel: "split-evenodd", Ranks: 2, Procs: 1, Pool: 1, Transport: "inproc", Plan: "nope", Seed: 1}
	out := chaostest.RunPoint(g, p, mustFind(t, "split-evenodd"))
	if out.Err == nil || !strings.Contains(out.Err.Error(), "unknown fault plan") {
		t.Fatalf("err = %v, want unknown fault plan", out.Err)
	}
}

func mustFind(t *testing.T, name string) chaostest.Kernel {
	t.Helper()
	k, ok := Find(name)
	if !ok {
		t.Fatalf("kernel %q missing from corpus", name)
	}
	return k
}

func fingerprints(r chaostest.Result) []string {
	var out []string
	for _, f := range r.Failures {
		out = append(out, f.Point.Fingerprint())
	}
	return out
}
